package core_test

import (
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/stats"
)

// TestWorkersOption holds the pair queue to its contract: the worker count
// decides who verifies a pair and when, never what a query answers or
// how much work it does. A slice of the accuracy judge's held-out queries
// runs cold against C1 at Workers 1, 2 and 5 — five is more workers than
// cores and more than some queries have rows with pairs, so workers join
// rows others hold — and every GES and S-LOG must be Float64bits-identical,
// every ranking identical, and every counter the worker count cannot move
// equal.
func TestWorkersOption(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	cfg := experiments.Config{Scale: experiments.Small}
	targets, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	all, err := cfg.HeldOutQueries()
	if err != nil {
		t.Fatal(err)
	}
	var queries []*asm.Proc
	for i := 0; i < len(all); i += 4 {
		queries = append(queries, all[i])
	}
	type answer struct {
		ranking [2]string // by GES, by S-LOG
		scores  []core.TargetScore
	}
	run := func(workers int) ([]answer, core.DBStats) {
		db := core.NewDB(core.Options{Workers: workers})
		for _, p := range targets {
			if err := db.AddTarget(p); err != nil {
				t.Fatal(err)
			}
		}
		var answers []answer
		for _, q := range queries {
			rep, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			a := answer{scores: rep.Results}
			for k, m := range []stats.Method{stats.Esh, stats.SLOG} {
				for _, ts := range rep.Rank(m) {
					a.ranking[k] += ts.Target.Name + "\n"
				}
			}
			answers = append(answers, a)
		}
		return answers, db.Stats()
	}
	// work is the part of DBStats no scheduling decision can move.
	work := func(s core.DBStats) [11]uint64 {
		return [...]uint64{s.Queries, s.VCPCacheHits, s.VCPCacheMisses, s.VCPRowsComplete,
			s.QueryPrepares, s.VCPPairsPruned, s.VCPPairsIdentical, s.ForwardDeadPairs,
			s.VerifierCorrespondences, s.KernelInstrs, s.KernelPrefixInstrs}
	}
	want, wantStats := run(1)
	if wantStats.VCPCacheMisses == 0 {
		t.Fatal("one worker: no pair reached the verifier")
	}
	for _, workers := range []int{2, 5} {
		got, gotStats := run(workers)
		for qi, q := range queries {
			w, g := want[qi], got[qi]
			if w.ranking != g.ranking {
				t.Errorf("Workers=%d, query %s: ranking differs from one worker's", workers, q.Name)
			}
			for i := range w.scores {
				ws, gs := w.scores[i], g.scores[i]
				if ws.Target.Name != gs.Target.Name ||
					math.Float64bits(ws.GES) != math.Float64bits(gs.GES) ||
					math.Float64bits(ws.SLOG) != math.Float64bits(gs.SLOG) {
					t.Fatalf("Workers=%d, query %s, result %d: %s GES=%v SLOG=%v, one worker %s GES=%v SLOG=%v",
						workers, q.Name, i, gs.Target.Name, gs.GES, gs.SLOG, ws.Target.Name, ws.GES, ws.SLOG)
				}
			}
		}
		if w, g := work(wantStats), work(gotStats); w != g {
			t.Errorf("Workers=%d: work counters %v, one worker %v", workers, g, w)
		}
	}
	t.Logf("%d queries, %d verifier calls, %d γ", len(queries), wantStats.VCPCacheMisses, wantStats.VerifierCorrespondences)
}
