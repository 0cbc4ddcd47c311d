package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/vcp"
)

// Additional engine-level behaviours: cache coherence across repeated
// and interleaved queries, and ranking.

func TestCacheCoherentAcrossQueries(t *testing.T) {
	db := buildDB(t)
	// Query A, then B, then A again: the third result must equal the
	// first exactly (the memo cache may only cache, never corrupt).
	a1, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(parse(t, unrelated)); err != nil {
		t.Fatal(err)
	}
	a2, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a1.Results {
		if a1.Results[i].GES != a2.Results[i].GES ||
			a1.Results[i].SLOG != a2.Results[i].SLOG {
			t.Fatalf("cache changed result %d: %+v vs %+v", i, a1.Results[i], a2.Results[i])
		}
	}
}

func TestRankOrdering(t *testing.T) {
	db := buildDB(t)
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []stats.Method{stats.SLOG, stats.Esh} {
		ranked := rep.Rank(m)
		if len(ranked) != len(rep.Results) {
			t.Fatal("Rank changed length")
		}
		for i := 1; i < len(ranked); i++ {
			if ranked[i].Score(m) > ranked[i-1].Score(m) {
				t.Errorf("%v: not sorted at %d", m, i)
			}
		}
	}
	// Rank must not mutate the receiver (Results stays GES-sorted).
	for i := 1; i < len(rep.Results); i++ {
		if rep.Results[i].GES > rep.Results[i-1].GES {
			t.Error("Results order mutated by Rank")
		}
	}
}

func TestQueryAgainstEmptyDB(t *testing.T) {
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 0 {
		t.Errorf("results from empty DB: %d", len(rep.Results))
	}
}
