package core_test

import (
	"context"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// TestVCPSpanMatchesCounters holds the two views of a query's verifier
// work to one record: the vcp span's attributes of one query must equal,
// counter by counter, what that query added to the DB's counters. Both are
// fed by the same per-row flush, so a counter fed from anywhere else, or a
// worker's hand-off that reaches one view and not the other, shows here.
// Two held-out queries run on a fresh DB of a C1 slice, cold, then again
// with their rows cached, at Workers 1 and 2.
func TestVCPSpanMatchesCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	cfg := experiments.Config{Scale: experiments.Small}
	all, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	held, err := cfg.HeldOutQueries()
	if err != nil {
		t.Fatal(err)
	}
	targets := all[:len(all)/4]
	queries := held[:2]

	counters := []struct {
		attr string
		read func(core.DBStats) uint64
	}{
		{"cache_hits", func(s core.DBStats) uint64 { return s.VCPCacheHits }},
		{"cache_misses", func(s core.DBStats) uint64 { return s.VCPCacheMisses }},
		{"rows_complete", func(s core.DBStats) uint64 { return s.VCPRowsComplete }},
		{"correspondences", func(s core.DBStats) uint64 { return s.VerifierCorrespondences }},
		{"kernel_nanos", func(s core.DBStats) uint64 { return s.KernelNanos }},
		{"gamma_batches", func(s core.DBStats) uint64 { return s.GammaBatches }},
		{"memo_hits", func(s core.DBStats) uint64 { return s.MemoHits }},
		{"memo_misses", func(s core.DBStats) uint64 { return s.MemoMisses }},
		{"pairs_pruned", func(s core.DBStats) uint64 { return s.VCPPairsPruned }},
		{"pairs_identical", func(s core.DBStats) uint64 { return s.VCPPairsIdentical }},
		{"pairs_forward_dead", func(s core.DBStats) uint64 { return s.ForwardDeadPairs }},
	}
	for _, workers := range []int{1, 2} {
		db := core.NewDB(core.Options{Workers: workers})
		for _, p := range targets {
			if err := db.AddTarget(p); err != nil {
				t.Fatal(err)
			}
		}
		for pass, q := range append(queries, queries...) {
			before := db.Stats()
			ctx, root := telemetry.StartSpan(context.Background(), "query")
			_, err := db.QueryCtx(ctx, q)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			after := db.Stats()
			attrs := root.Snapshot().Find("vcp").Attrs
			if pass == 0 && (attrs["workers"] != float64(workers) || attrs["cache_misses"] == 0 || attrs["memo_misses"] == 0) {
				t.Fatalf("workers=%d: the cold query did not fan out over the verifier: %v", workers, attrs)
			}
			for _, c := range counters {
				if got, want := attrs[c.attr], float64(c.read(after)-c.read(before)); got != want {
					t.Errorf("workers=%d query %d (%s): span %s = %v, DB counter moved %v",
						workers, pass, q.Name, c.attr, got, want)
				}
			}
		}
	}
}
