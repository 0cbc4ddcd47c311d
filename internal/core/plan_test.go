package core

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/rand"
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
	t.Run("scan", func(t *testing.T) {
		opts := writeTestOptions()
		db := newWriteDB()
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
	for _, mode := range writeModes {
		t.Run(mode, func(t *testing.T) {
			opts := writeTestOptions()
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
				if mode == "lsh" {
					checkSketchState(t, label, db)
				}
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

// stableRanking is the reference ranking: the positions of scores under a
// stable comparator sort, descending by cmp.Compare — −0 equal to +0,
// every NaN last, ties in position order.
func stableRanking(scores []float64) []int {
	pos := make([]int, len(scores))
	for i := range pos {
		pos[i] = i
	}
	slices.SortStableFunc(pos, func(a, b int) int { return cmp.Compare(scores[b], scores[a]) })
	return pos
}

// repeat returns n copies of x.
func repeat(x float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = x
	}
	return out
}

// rankCases are score lists that stress the rank key and the radix pass:
// values equal under cmp.Compare with different bits, keys that differ
// in one byte, every pass skipped, and the sizes around the pass's edges.
func rankCases() map[string][]float64 {
	inf, nan := math.Inf(1), math.NaN()
	negNaN := math.Float64frombits(0xfff8000000000001)
	cases := map[string][]float64{
		"signed zeros": {0, math.Copysign(0, -1), 1, 0, -1, math.Copysign(0, -1), 0},
		"infinities": {1, inf, -inf, nan, math.MaxFloat64, -inf, inf, -math.MaxFloat64,
			negNaN, 0, inf},
		"negative and subnormal": {-2.5, 5e-324, -5e-324, 1e-310, -1e-310, 0x1p-1022,
			-0x1p-1022, -1e300, 3 * 5e-324, -5e-324, math.Copysign(0, -1), -2.5},
		"all equal": repeat(-3.5, 64),
		"n=0":       {},
		"n=1":       {nan},
		"n=2":       {1, 2},
		"n=2 tied":  {math.Copysign(0, -1), 0},
	}
	var next []float64
	for _, x := range []float64{1, -1, 0, 1e-300, -3.5, math.MaxFloat64, 5e-324} {
		up, down := math.Nextafter(x, inf), math.Nextafter(x, -inf)
		next = append(next, up, x, down, x, up)
	}
	cases["nextafter neighbours"] = next
	// 5000 draws from a small pool, so most keys tie, mixed with fresh
	// values that differ anywhere in their bits.
	rng := rand.New(rand.NewSource(39))
	pool := slices.Concat(cases["infinities"], cases["negative and subnormal"], next)
	big := make([]float64, 5000)
	for i := range big {
		if rng.Intn(4) == 0 {
			big[i] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
		} else {
			big[i] = pool[rng.Intn(len(pool))]
		}
	}
	cases["n=5000"] = big
	return cases
}

// TestFinalizeRankOrder pins Finalize's ranking to the stable comparator
// sort it replaced: descending GES, −0 equal to +0, equal scores (most of
// a corpus ties at the no-match score) in target order, NaNs last in
// target order. The score lists of rankCases go through the key and the
// radix pass Finalize ranks with; partials go through Finalize whole.
func TestFinalizeRankOrder(t *testing.T) {
	for name, scores := range rankCases() {
		slab := make([]rankEntry, 2*len(scores))
		for i, x := range scores {
			slab[i] = rankEntry{rankKey(x), int32(i)}
		}
		want := stableRanking(scores)
		for k, r := range radixRank(slab[:len(scores)], slab[len(scores):]) {
			if int(r.pos) != want[k] {
				t.Fatalf("%s: rank %d is position %d (%v), the stable sort ranks %d (%v)",
					name, k, r.pos, scores[r.pos], want[k], scores[want[k]])
			}
		}
	}

	// partial lays n targets out over the levels, scored by strands of
	// the given weights against one histogram.
	levels := []float64{0, 0, 0, 0.25, 0.25, 0.5, 1, math.NaN()}
	h0 := freshH0([]float64{0.5, 0, 1}, []int{1, 2, 3})
	partial := func(n int, weights ...float64) *QueryPartial {
		qp := &QueryPartial{Weights: weights}
		for range weights {
			qp.H0 = append(qp.H0, h0)
		}
		for ti := range n {
			v := levels[(ti*7+ti/5)%len(levels)]
			qp.Targets = append(qp.Targets, PartialScore{
				Target: &Target{Name: fmt.Sprintf("t%d", ti)},
				MaxVCP: repeat(v, len(weights)),
			})
		}
		return qp
	}
	for _, tc := range []struct {
		name    string
		qp      *QueryPartial
		premise func(ges float64) bool // some target must score so
	}{
		{"n=0", partial(0, 2), nil},
		{"n=1", partial(1, 2), nil},
		{"n=2", partial(2, 2), nil},
		{"n=300", partial(300, 2), math.IsNaN},
		{"n=5000", partial(5000, 2), func(g float64) bool { return g < 0 }},
		{"overflow to +Inf", partial(300, math.MaxFloat64, math.MaxFloat64),
			func(g float64) bool { return math.IsInf(g, 1) }},
		{"overflow to -Inf", partial(300, math.MaxFloat64),
			func(g float64) bool { return math.IsInf(g, -1) }},
		{"subnormal", partial(300, 5e-324, 5e-324),
			func(g float64) bool { return g != 0 && math.Abs(g) < 0x1p-1022 }},
	} {
		got := tc.qp.Finalize().Results
		scores := make([]float64, len(got))
		for k, ts := range got {
			scores[k] = ts.GES
		}
		byTarget := make([]float64, len(tc.qp.Targets))
		for _, ts := range got {
			byTarget[slices.IndexFunc(tc.qp.Targets, func(ps PartialScore) bool { return ps.Target == ts.Target })] = ts.GES
		}
		for k, ti := range stableRanking(byTarget) {
			if got[k].Target != tc.qp.Targets[ti].Target {
				t.Fatalf("%s: rank %d is %s, a stable sort ranks %s", tc.name, k,
					got[k].Target.Name, tc.qp.Targets[ti].Target.Name)
			}
		}
		if tc.premise != nil && !slices.ContainsFunc(scores, tc.premise) {
			t.Fatalf("%s: test premise broken: scores %v", tc.name, scores[:min(len(scores), 10)])
		}
	}
}

// TestReportRankOrder pins Report.Rank to the same rule as Finalize: a
// stable sort by the method's score over the GES order it starts from,
// NaNs last. S-LOG gets rankCases' lists, over results whose GES order
// ties some and not others; Esh hands back the order Finalize made.
func TestReportRankOrder(t *testing.T) {
	for name, scores := range rankCases() {
		rep := &Report{}
		for i, x := range scores {
			rep.Results = append(rep.Results, TargetScore{
				Target: &Target{Name: fmt.Sprintf("t%d", i)},
				SLOG:   x,
				GES:    -float64(i / 3),
			})
		}
		before := slices.Clone(rep.Results)
		got := rep.Rank(stats.SLOG)
		for k, i := range stableRanking(scores) {
			if got[k].Target != rep.Results[i].Target {
				t.Fatalf("%s: S-LOG rank %d is %s (%v), the stable sort ranks %s (%v)",
					name, k, got[k].Target.Name, got[k].SLOG, rep.Results[i].Target.Name, scores[i])
			}
		}
		sameOrder := func(a, b []TargetScore) bool {
			return slices.EqualFunc(a, b, func(x, y TargetScore) bool { return x.Target == y.Target })
		}
		if !sameOrder(rep.Rank(stats.Esh), before) || !sameOrder(rep.Results, before) {
			t.Fatalf("%s: Rank(Esh) reordered a GES-ranked report, or Rank wrote its receiver", name)
		}
	}
}
