package core

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
)

// answer is what RunPlan computes, with the pieces kept: the corpus version
// the query loaded, its VCP rows, its partial, and the report.
type answer struct {
	query int
	qc    *corpus
	rows  [][]float64
	qp    *QueryPartial
	rep   *Report
}

func answerPlan(db *DB, query int, pl *QueryPlan) (answer, error) {
	qc := db.corpus.Load()
	qp, rows, err := db.partialQuery(context.Background(), pl, qc)
	if err != nil {
		return answer{}, err
	}
	return answer{query, qc, rows, qp, qp.Finalize()}, nil
}

// TestEveryAnswerOneVersion is the history check the sharing tests leave
// out: they assert no race, no failure and a final state equal to a rebuild;
// this asserts that every answer returned while writes were landing is the
// answer of one version of the corpus. A fixed script of adds, deletes and
// compactions is run serially first, recording after each step the
// (DataGeneration, PendingWrites) stamp — one writer, so a stamp names a
// step — and what a from-scratch rebuild of the survivors answers. The same
// script then runs against four readers, and each partial they were handed
// must come from a version whose stamp the serial run produced and equal
// that step's rebuild bit for bit: rows over the live strands (matched by
// canonical key), H0 histograms, per-target reductions, finalized scores
// and ranking.
func TestEveryAnswerOneVersion(t *testing.T) {
	script := append(synthOps(1, 2, 3), addOp(iccStyle))
	const setup = 4 // steps applied before the readers start
	for i := 10; i < 18; i++ {
		script = append(script, addOp(genProc(i)))
		if i%2 == 1 {
			script = append(script, delOp(fmt.Sprintf("synth_%d", i)))
		}
		if i%4 == 3 {
			script = append(script, delOp(fmt.Sprintf("synth_%d", i-1)), compactOp())
		}
	}
	// A counts-only add, a delete of a target that shares its strands, and a
	// compaction with no tombstone to drop (nothing is renumbered).
	script = append(script, addOp(renameProc(iccStyle, "checksum_icc", "checksum_copy")),
		delOp("checksum_icc"), compactOp(), addOp(unrelated), compactOp())
	queries := []string{gccStyle, genProc(2)}

	type stamp struct {
		generation uint64
		pending    int
	}
	t.Run("scan", func(t *testing.T) {
		opts := writeTestOptions()
		serial := newWriteDB()
		plans := make([]*QueryPlan, len(queries))
		for qi, src := range queries {
			var err error
			if plans[qi], err = serial.Plan(context.Background(), parse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		want := map[stamp][]answer{}
		for step := range script {
			applyScript(t, serial, script[step:step+1], false)
			ws := serial.WriteState()
			at := stamp{ws.Generation, ws.PendingWrites}
			if _, seen := want[at]; seen {
				t.Fatalf("test premise broken: step %d repeats the stamp %+v", step, at)
			}
			fresh := buildFresh(t, opts, survivors(t, script[:step+1]))
			for qi, pl := range plans {
				a, err := answerPlan(fresh, qi, pl)
				if err != nil {
					t.Fatal(err)
				}
				want[at] = append(want[at], a)
			}
		}

		live := newWriteDB()
		applyScript(t, live, script[:setup], false)
		done := make(chan struct{})
		var served atomic.Int64
		var mu sync.Mutex
		var got []answer
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func(r int) {
				defer readers.Done()
				for i := r; ; i++ {
					select {
					case <-done:
						return
					default:
					}
					a, err := answerPlan(live, i%len(plans), plans[i%len(plans)])
					if err != nil {
						t.Error(err)
						return
					}
					mu.Lock()
					got = append(got, a)
					mu.Unlock()
					served.Add(1)
				}
			}(r)
		}
		for step := setup; step < len(script); step++ {
			applyScript(t, live, script[step:step+1], false)
			for until := served.Load() + 8; served.Load() < until && !t.Failed(); {
				runtime.Gosched()
			}
		}
		close(done)
		readers.Wait()

		seen := map[stamp]bool{}
		for n, g := range got {
			at := stamp{g.qc.Generation, g.qc.PendingWrites}
			steps, ok := want[at]
			if !ok {
				t.Fatalf("answer %d carries the stamp %+v, which no step of the serial run produced", n, at)
			}
			seen[at] = true
			diffAnswer(t, fmt.Sprintf("answer %d (query %d at %+v)", n, g.query, at), g, steps[g.query])
		}
		if len(seen) < 3 {
			t.Fatalf("test premise broken: %d answers saw only %d of %d versions", len(got), len(seen), len(script)-setup+1)
		}
	})
}

// diffAnswer fails unless got, computed over a live corpus version, equals
// what the rebuild of that version's survivors answered.
func diffAnswer(t *testing.T, label string, got, want answer) {
	t.Helper()
	bits := math.Float64bits
	live := map[string]int{} // canonical key -> column, live strands only
	for j, u := range got.qc.uniq {
		if got.qc.counts[j] > 0 {
			live[u.Key()] = j
		}
	}
	if len(live) != len(want.qc.uniq) || len(got.rows) != len(want.rows) {
		t.Fatalf("%s: %d rows over %d live strands, the rebuild has %d over %d", label, len(got.rows), len(live), len(want.rows), len(want.qc.uniq))
	}
	for i, wrow := range want.rows {
		for k, w := range wrow {
			j, ok := live[want.qc.uniq[k].Key()]
			if !ok {
				t.Fatalf("%s: the rebuild's strand %d is not live here", label, k)
			}
			if bits(got.rows[i][j]) != bits(w) {
				t.Fatalf("%s: row %d column %d = %v, the rebuild's column %d has %v", label, i, j, got.rows[i][j], k, w)
			}
		}
		diffH0(t, fmt.Sprintf("%s, strand %d", label, i), got.qp.H0[i], want.qp.H0[i])
	}
	if len(got.qp.Targets) != len(want.qp.Targets) {
		t.Fatalf("%s: %d targets, the rebuild has %d", label, len(got.qp.Targets), len(want.qp.Targets))
	}
	for ti, w := range want.qp.Targets {
		g := got.qp.Targets[ti]
		if g.Target.Name != w.Target.Name || len(g.MaxVCP) != len(w.MaxVCP) {
			t.Fatalf("%s: target %d is %s with %d best VCPs, the rebuild has %s with %d", label, ti, g.Target.Name, len(g.MaxVCP), w.Target.Name, len(w.MaxVCP))
		}
		for i := range w.MaxVCP {
			if bits(g.MaxVCP[i]) != bits(w.MaxVCP[i]) {
				t.Fatalf("%s: target %s best VCP of strand %d = %v, the rebuild has %v", label, g.Target.Name, i, g.MaxVCP[i], w.MaxVCP[i])
			}
		}
	}
	diffReports(t, label, got.rep, want.rep)
}

// numberingJournal numbers writes the way a WAL does and keeps them:
// record seq is history[seq-1]. The engine journals under its write lock,
// so records arrive one at a time, in the order the writes take effect.
type numberingJournal struct{ history []wop }

func (j *numberingJournal) LogAdd(_, body string) (uint64, error) {
	j.history = append(j.history, addOp(body))
	return uint64(len(j.history)), nil
}

func (j *numberingJournal) LogRemove(name string) (uint64, error) {
	j.history = append(j.history, delOp(name))
	return uint64(len(j.history)), nil
}

// TestLinearizableHistory is the real-time half of the history check:
// two writers on disjoint names, a compactor and two readers share one
// database. The journal numbers the writes in the order they took effect;
// each query reads WALSeq at invoke and at return, and its scores must be
// Float64bits-equal to a from-scratch build of writes 1..k for some k
// between the two. Compactions do not move k: they change the layout of
// the corpus, never its answer. TestEveryAnswerOneVersion pins answers to
// versions under one writer; this adds real-time bounds and concurrent
// writers.
func TestLinearizableHistory(t *testing.T) {
	const writers, perWriter = 2, 9
	queries := []string{gccStyle, genProc(23)}
	for _, mode := range writeModes {
		t.Run(mode, func(t *testing.T) {
			opts := writeTestOptions()
			db := NewDB(opts)
			journal := &numberingJournal{}
			db.SetJournal(journal)
			plans := make([]*QueryPlan, len(queries))
			for qi, src := range queries {
				var err error
				if plans[qi], err = db.Plan(context.Background(), parse(t, src)); err != nil {
					t.Fatal(err)
				}
			}
			// Writer w adds synth_{10(w+1)+i} and deletes every third of
			// its own adds again: names never collide across writers, so
			// every write succeeds whatever the interleaving.
			procs := make([][]*asm.Proc, writers)
			for w := range procs {
				for i := 0; i < perWriter; i++ {
					procs[w] = append(procs[w], parse(t, genProc(10*(w+1)+i)))
				}
			}

			type observed struct {
				query  int
				lo, hi uint64
				rep    *Report
			}
			var mu sync.Mutex
			var seen []observed
			var served atomic.Int64
			var writing, others sync.WaitGroup
			done := make(chan struct{})
			for w := range procs {
				writing.Add(1)
				go func(w int) {
					defer writing.Done()
					for i, p := range procs[w] {
						gen := db.DataGeneration()
						if err := db.ApplyAdd(p); err != nil {
							t.Error(err)
							return
						}
						if i%3 == 2 {
							if _, err := db.ApplyRemove(procs[w][i-1].Name); err != nil {
								t.Error(err)
								return
							}
						}
						// Let the readers answer and the compactor fold in
						// between, so the history has many invoke points.
						for until := served.Load() + 2; served.Load() < until && !t.Failed(); {
							runtime.Gosched()
						}
						for i%3 == 0 && db.DataGeneration() == gen && !t.Failed() {
							runtime.Gosched()
						}
					}
				}(w)
			}
			others.Add(1)
			go func() {
				defer others.Done()
				for {
					select {
					case <-done:
						return
					default:
					}
					if _, _, err := db.Compact(nil, nil); err != nil {
						t.Error(err)
						return
					}
					runtime.Gosched()
				}
			}()
			for r := 0; r < 2; r++ {
				others.Add(1)
				go func(r int) {
					defer others.Done()
					for i := r; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						qi := i % len(plans)
						lo := db.WALSeq()
						rep, err := db.RunPlan(context.Background(), plans[qi])
						hi := db.WALSeq()
						if err != nil {
							t.Error(err)
							return
						}
						mu.Lock()
						seen = append(seen, observed{qi, lo, hi, rep})
						mu.Unlock()
						served.Add(1)
					}
				}(r)
			}
			writing.Wait()
			close(done)
			others.Wait()
			if t.Failed() {
				return
			}

			history := journal.history
			if want := writers * (perWriter + perWriter/3); len(history) != want {
				t.Fatalf("journal holds %d writes, want %d", len(history), want)
			}
			if mode == "lsh" {
				checkSketchState(t, "after the concurrent history", db)
			}
			// rebuilds[k][q] is query q's answer over writes 1..k.
			rebuilds := map[uint64][]*Report{}
			at := func(k uint64) []*Report {
				if reps, ok := rebuilds[k]; ok {
					return reps
				}
				fresh := buildFresh(t, opts, survivors(t, history[:k]))
				var reps []*Report
				for _, pl := range plans {
					rep, err := fresh.RunPlan(context.Background(), pl)
					if err != nil {
						t.Fatal(err)
					}
					reps = append(reps, rep)
				}
				rebuilds[k] = reps
				return reps
			}
			invokes := map[uint64]bool{}
			for n, o := range seen {
				invokes[o.lo] = true
				found := false
				for k := o.lo; k <= o.hi && !found; k++ {
					found = sameAnswer(o.rep, at(k)[o.query])
				}
				if !found {
					t.Fatalf("answer %d (query %d, invoked at write %d, returned at write %d) equals no rebuild of writes 1..k for k in [%d, %d]",
						n, o.query, o.lo, o.hi, o.lo, o.hi)
				}
			}
			if len(invokes) < len(history)/4 || db.DataGeneration() < writers {
				t.Fatalf("test premise broken: %d answers invoked at only %d distinct writes, %d compactions",
					len(seen), len(invokes), db.DataGeneration())
			}
		})
	}
}

// sameAnswer reports whether two reports rank the same targets with
// Float64bits-equal scores.
func sameAnswer(got, want *Report) bool {
	if len(got.Results) != len(want.Results) {
		return false
	}
	bits := math.Float64bits
	for i, w := range want.Results {
		g := got.Results[i]
		if g.Target.Name != w.Target.Name || bits(g.GES) != bits(w.GES) || bits(g.SLOG) != bits(w.SLOG) {
			return false
		}
	}
	return true
}
