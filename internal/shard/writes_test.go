package shard

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
)

// shardWriter drives one shard's live writes and keeps the test's own
// account of them: the shard's live adds in add order, and the split
// positions it tombstoned.
type shardWriter struct {
	t    *testing.T
	db   *core.DB
	adds []*asm.Proc
	dead map[int]bool
}

func (w *shardWriter) add(src, name string) {
	w.t.Helper()
	p := parse(w.t, src)
	p.Name = name
	if err := w.db.ApplyAdd(p); err != nil {
		w.t.Fatal(err)
	}
	w.adds = append(w.adds, p)
}

// remove tombstones an added target, or the split target st.
func (w *shardWriter) remove(name string, st *core.ExportTarget) {
	w.t.Helper()
	if n, err := w.db.ApplyRemove(name); err != nil || n != 1 {
		w.t.Fatalf("remove %s: %d removed, %v", name, n, err)
	}
	if st != nil {
		w.dead[st.SplitPos] = true
		return
	}
	w.adds = slices.DeleteFunc(w.adds, func(p *asm.Proc) bool { return p.Name == name })
}

// roundTrip compacts the shard, saves it as a snapshot and serves the
// loaded snapshot from then on. The split positions must come back.
func (w *shardWriter) roundTrip() {
	w.t.Helper()
	if _, _, err := w.db.Compact(nil, nil); err != nil {
		w.t.Fatal(err)
	}
	before := w.db.Export()
	var buf bytes.Buffer
	if _, err := index.SaveExportCtx(context.Background(), &buf, before); err != nil {
		w.t.Fatal(err)
	}
	db, _, err := index.LoadInfoCtx(context.Background(), &buf, nil)
	if err != nil {
		w.t.Fatal(err)
	}
	pos := func(ex *core.Export) (out []int) {
		for _, et := range ex.Targets {
			out = append(out, et.SplitPos)
		}
		return out
	}
	if got, want := pos(db.Export()), pos(before); !reflect.DeepEqual(got, want) {
		w.t.Fatalf("split positions %v after a snapshot round trip, %v before", got, want)
	}
	w.db = db
}

// TestMergeAfterWrites: a fleet whose shards took live writes still
// merges exactly. For N ∈ {2, 3}, every shard adds targets, tombstones a
// split target and an added one, re-adds the tombstoned split target's
// name with another body, compacts, round-trips through a snapshot, and
// then tombstones and adds again without compacting. For every query of
// the corpus, the merged report — through frames, each slot's
// TargetTable primed — must equal, score bits and order, a single node
// that indexed the fleet's live targets in canonical order: the split's
// survivors in corpus order, then each shard's live adds in add order,
// shard 0's first. With one shard missing it must equal a single node
// over the responders' live targets.
func TestMergeAfterWrites(t *testing.T) {
	procs := copiesCorpus(t)
	ex := indexProcs(t, procs).Export()
	queries := []*asm.Proc{parse(t, gccStyle), parse(t, iccStyle), parse(t, memStyle)}
	for _, n := range []int{2, 3} {
		man, shardExs, err := Split(ex, n)
		if err != nil {
			t.Fatal(err)
		}
		owner := map[int]int{} // split position -> shard
		ws := make([]*shardWriter, n)
		for s, se := range shardExs {
			if len(se.Targets) < 2 {
				t.Fatalf("n=%d: shard %d holds %d targets, the test needs two", n, s, len(se.Targets))
			}
			for _, st := range se.Targets {
				owner[st.SplitPos] = s
			}
			db, err := core.FromExport(se)
			if err != nil {
				t.Fatal(err)
			}
			w := &shardWriter{t: t, db: db, dead: map[int]bool{}}
			first, second := &se.Targets[0], &se.Targets[1]
			w.add(memStyle, fmt.Sprintf("added_%d_0", s))
			w.add(gccStyle, fmt.Sprintf("added_%d_1", s))
			w.remove(first.Name, first)
			w.remove(fmt.Sprintf("added_%d_0", s), nil)
			w.add(iccStyle, first.Name)
			w.roundTrip()
			w.remove(second.Name, second)
			w.add(memStyle, fmt.Sprintf("added_%d_2", s))
			ws[s] = w
		}

		// single is a node that indexed the live targets of the shards
		// keep selects, in canonical order.
		single := func(keep func(s int) bool) *core.DB {
			var live []*asm.Proc
			for ti, p := range procs {
				if s := owner[ti+1]; keep(s) && !ws[s].dead[ti+1] {
					live = append(live, p)
				}
			}
			for s, w := range ws {
				if keep(s) {
					live = append(live, w.adds...)
				}
			}
			return indexProcs(t, live)
		}
		tabs := make([]TargetTable, n)
		merged := func(q *asm.Proc, drop int) *core.Report {
			t.Helper()
			var parts []*Partial
			for s, w := range ws {
				if s == drop {
					continue
				}
				qp, err := w.db.PartialQueryCtx(context.Background(), q)
				if err != nil {
					t.Fatal(err)
				}
				b, err := (&Frame{Partial: FromQueryPartial(qp, w.db.Shard())}).AppendTo(nil)
				qp.Release()
				if err != nil {
					t.Fatal(err)
				}
				primed := tabs[s].last.Load()
				f, err := DecodeFrame(b, &tabs[s])
				if err != nil {
					t.Fatal(err)
				}
				if primed != nil && tabs[s].last.Load() != primed {
					t.Fatalf("n=%d shard %d: the primed target table was not reused", n, s)
				}
				parts = append(parts, f.Partial)
			}
			rep, missing, err := Merge(man, parts)
			for _, p := range parts {
				p.Release()
			}
			if err != nil {
				t.Fatalf("n=%d: merge: %v", n, err)
			}
			if drop >= 0 && !slices.Equal(missing, []int{drop}) || drop < 0 && missing != nil {
				t.Fatalf("n=%d: missing shards %v with shard %d dropped", n, missing, drop)
			}
			return rep
		}
		for _, q := range queries {
			merged(q, -1) // primes every slot's table
		}
		all := single(func(int) bool { return true })
		for _, q := range queries {
			want, err := all.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			requireIdentical(t, want, merged(q, -1), fmt.Sprintf("n=%d %s", n, q.Name))
			for drop := 0; drop < n; drop++ {
				want, err := single(func(s int) bool { return s != drop }).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				requireIdentical(t, want, merged(q, drop), fmt.Sprintf("n=%d %s with shard %d missing", n, q.Name, drop))
			}
		}
	}
}
