package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/stats"
)

// TestSharedPlanReadOnly has four readers run one plan — the way a server
// that memoizes plans by request text does — while a writer adds, deletes
// and compacts under them. The race detector is the assertion that no
// stage ever writes a published plan's strands, keys or weights; at the end
// the plan still reads like one made afresh and still answers like a
// rebuild of what the writer left.
func TestSharedPlanReadOnly(t *testing.T) {
	for _, mode := range []string{"lsh"} {
		t.Run(mode, func(t *testing.T) {
			opts := writeTestOptions(mode)
			db := newWriteDB(mode)
			ops := append(synthOps(1, 2, 3), addOp(iccStyle))
			applyScript(t, db, ops, false)
			q := parse(t, threeChains)
			pl, err := db.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}

			done := make(chan struct{})
			var served atomic.Int64
			var readers sync.WaitGroup
			for r := 0; r < 4; r++ {
				readers.Add(1)
				go func(r int) {
					defer readers.Done()
					for i := 0; ; i++ {
						select {
						case <-done:
							return
						default:
						}
						var err error
						if (i+r)%2 == 0 {
							db.TracePlanReuse(context.Background())
							_, err = db.RunPlan(context.Background(), pl)
						} else {
							_, err = db.RunPlanPartial(context.Background(), pl)
						}
						if err != nil {
							t.Error(err)
							return
						}
						served.Add(1)
					}
				}(r)
			}
			step := func(more ...wop) {
				applyScript(t, db, more, false)
				ops = append(ops, more...)
				for until := served.Load() + 8; served.Load() < until && !t.Failed(); {
					runtime.Gosched()
				}
			}
			for i := 10; i < 18; i++ {
				step(addOp(genProc(i)))
				if i%2 == 1 {
					step(delOp(fmt.Sprintf("synth_%d", i)))
				}
				if i%4 == 3 {
					step(delOp(fmt.Sprintf("synth_%d", i-1)), compactOp())
				}
			}
			close(done)
			readers.Wait()

			again, err := db.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			if len(pl.strands) != len(again.strands) || !slices.Equal(pl.weights, again.weights) {
				t.Fatalf("the shared plan has %d strands weighted %v, a fresh one %d weighted %v",
					len(pl.strands), pl.weights, len(again.strands), again.weights)
			}
			for i, s := range pl.strands {
				if s.CanonicalKey() != again.strands[i].CanonicalKey() {
					t.Errorf("strand %d of the shared plan changed its key", i)
				}
			}
			got, err := db.RunPlan(context.Background(), pl)
			if err != nil {
				t.Fatal(err)
			}
			want, err := buildFresh(t, opts, survivors(t, ops)).Query(q)
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, "shared plan after the writer", got, want)
		})
	}
}

// freshH0 is the H0 histogram of one row summed anew.
func freshH0(row []float64, counts []int) *stats.H0Accumulator {
	h0 := new(stats.H0Accumulator)
	for j, v := range row {
		h0.Add(v, counts[j])
	}
	return h0
}

// TestRowH0MatchesAccumulator pins the H0 histogram kept with a cached row
// to a fresh accumulator run, bit for bit, and to the version of the corpus
// counts it was summed under: a write that changes nothing but the counts
// (a second copy of an indexed target: no new strand, no new column), a
// tombstone and a compaction must each be followed by a re-summed
// histogram, never the one stamped before them.
func TestRowH0MatchesAccumulator(t *testing.T) {
	for _, mode := range []string{"scan", "lsh"} {
		t.Run(mode, func(t *testing.T) {
			opts := writeTestOptions(mode)
			opts.SigmoidK = 7
			db := NewDB(opts)
			ops := append(synthOps(1, 2, 3), addOp(iccStyle), addOp(unrelated))
			applyScript(t, db, ops, false)
			q := parse(t, gccStyle)
			pl, err := db.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			var lastVer uint64
			check := func(label string, wantTombstones bool) {
				t.Helper()
				want, err := buildFresh(t, opts, survivors(t, ops)).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				// The first run after a write completes or re-sums the
				// rows, the second leaves the histogram with them, the
				// third reads it.
				for run := 0; run < 3; run++ {
					got, err := db.RunPlan(context.Background(), pl)
					if err != nil {
						t.Fatal(err)
					}
					diffReports(t, fmt.Sprintf("%s, run %d", label, run), got, want)
				}
				qc := db.corpus.Load()
				if (qc.live != nil) != wantTombstones || qc.countsVer == lastVer {
					t.Fatalf("%s: test premise broken: tombstones %v, counts version %d after %d",
						label, qc.live != nil, qc.countsVer, lastVer)
				}
				lastVer = qc.countsVer
				db.mu.Lock()
				defer db.mu.Unlock()
				for _, s := range pl.strands {
					row, _ := db.rows.Get(s.CanonicalKey())
					h0 := row.h0At(qc.countsVer)
					if h0 == nil {
						t.Fatalf("%s: a row queried three times holds no histogram for version %d", label, qc.countsVer)
					}
					diffH0(t, label, h0, freshH0(row.vals[:len(qc.uniq)], qc.counts))
				}
			}
			write := func(more ...wop) {
				applyScript(t, db, more, false)
				ops = append(ops, more...)
			}
			check("as indexed", false)
			uniq := db.NumUniqueStrands()
			write(addOp(renameProc(iccStyle, "checksum_icc", "checksum_copy")))
			if db.NumUniqueStrands() != uniq {
				t.Fatal("test premise broken: the copy brought new strands")
			}
			check("counts-only add", false)
			write(delOp("synth_2"))
			check("tombstone", true)
			write(delOp("checksum_icc"))
			check("second tombstone", true)
			write(compactOp())
			check("compacted", false)
		})
	}
}

// TestFinalizeRankOrder pins Finalize's ranking to the stable sort it
// replaced: descending GES, equal scores (most of a corpus ties at the
// no-match score) in target order, NaNs last in target order.
func TestFinalizeRankOrder(t *testing.T) {
	levels := []float64{0, 0, 0, 0.25, 0.25, 0.5, 1, math.NaN()}
	h0 := freshH0([]float64{0.5, 0, 1}, []int{1, 2, 3})
	qp := &QueryPartial{Weights: []float64{2}, H0: []*stats.H0Accumulator{h0}}
	targets := make([]*Target, 300)
	for ti := range targets {
		targets[ti] = &Target{Name: fmt.Sprintf("t%d", ti)}
		v := levels[(ti*7+ti/5)%len(levels)]
		qp.Targets = append(qp.Targets, PartialScore{Target: targets[ti], MaxVCP: []float64{v}})
	}
	got := qp.Finalize().Results
	want := make([]TargetScore, len(targets))
	for _, ts := range got {
		ti := slices.Index(targets, ts.Target)
		want[ti] = ts
	}
	slices.SortStableFunc(want, func(a, b TargetScore) int { return cmp.Compare(b.GES, a.GES) })
	ties, nans := 0, 0
	for k := range got {
		if got[k].Target != want[k].Target {
			t.Fatalf("rank %d is %s, a stable sort ranks %s", k, got[k].Target.Name, want[k].Target.Name)
		}
		if k > 0 && got[k].GES == got[k-1].GES {
			ties++
		}
		if math.IsNaN(got[k].GES) {
			nans++
		}
	}
	if ties < 100 || nans < 10 || !math.IsNaN(got[len(got)-1].GES) {
		t.Fatalf("test premise broken: %d ties, %d NaNs", ties, nans)
	}
}
