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

// freshH0 is the H0 estimate of one row as Finalize has always summed
// it: a new accumulator over the row, in index order or in the given one.
func freshH0(row []float64, counts []int, order []int32, k float64) stats.StrandEvidence {
	h0 := stats.H0Accumulator{K: k}
	if order == nil {
		for j, v := range row {
			h0.Add(v, counts[j])
		}
	} else {
		for _, j := range order {
			h0.Add(row[j], counts[j])
		}
	}
	return h0.Evidence(0)
}

// TestRowH0MatchesAccumulator pins the H0 estimate kept with a cached row
// to a fresh accumulator run, bit for bit, and to the version of the corpus
// counts it was summed under: a write that changes nothing but the counts
// (a second copy of an indexed target: no new strand, no new column) and a
// tombstone (h0Order set) must each be followed by a re-summed estimate,
// never the one stamped before them.
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
			check := func(label string, wantOrder bool) {
				t.Helper()
				want, err := buildFresh(t, opts, survivors(t, ops)).Query(q)
				if err != nil {
					t.Fatal(err)
				}
				// The first run after a write completes or re-sums the
				// rows, the second leaves the estimate with them, the
				// third reads it.
				for run := 0; run < 3; run++ {
					got, err := db.RunPlan(context.Background(), pl)
					if err != nil {
						t.Fatal(err)
					}
					diffReports(t, fmt.Sprintf("%s, run %d", label, run), got, want)
				}
				qc := db.corpus.Load()
				if (qc.h0Order != nil) != wantOrder || qc.countsVer == lastVer {
					t.Fatalf("%s: test premise broken: h0Order set %v, counts version %d after %d",
						label, qc.h0Order != nil, qc.countsVer, lastVer)
				}
				lastVer = qc.countsVer
				db.mu.Lock()
				defer db.mu.Unlock()
				for _, s := range pl.strands {
					row, _ := db.rows.Get(s.CanonicalKey())
					ev, ok := row.h0At(qc.countsVer)
					if !ok {
						t.Fatalf("%s: a row queried three times holds no estimate for version %d", label, qc.countsVer)
					}
					fresh := freshH0(row.vals[:len(qc.uniq)], qc.counts, qc.h0Order, opts.SigmoidK)
					if math.Float64bits(ev.H0Esh) != math.Float64bits(fresh.H0Esh) ||
						math.Float64bits(ev.H0Raw) != math.Float64bits(fresh.H0Raw) || ev.K != fresh.K {
						t.Errorf("%s: the row holds H0 (%x, %x), a fresh accumulator gives (%x, %x)", label,
							math.Float64bits(ev.H0Esh), math.Float64bits(ev.H0Raw),
							math.Float64bits(fresh.H0Esh), math.Float64bits(fresh.H0Raw))
					}
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
	qp := &QueryPartial{Weights: []float64{2}, Rows: [][]float64{{0.5, 0, 1}}}
	targets := make([]*Target, 300)
	for ti := range targets {
		targets[ti] = &Target{Name: fmt.Sprintf("t%d", ti)}
		v := levels[(ti*7+ti/5)%len(levels)]
		qp.Targets = append(qp.Targets, PartialScore{Target: targets[ti], MaxVCP: []float64{v}})
	}
	got := qp.Finalize([]int{1, 2, 3}).Results
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
