package core

import (
	"testing"

	"repro/internal/stats"
	"repro/internal/vcp"
)

// Additional engine-level behaviours: the sigmoid-k option, cache
// coherence across repeated and interleaved queries, and ranking.

func TestSigmoidKChangesEshOnly(t *testing.T) {
	build := func(k float64) *Report {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 3}, SigmoidK: k})
		for _, src := range []string{iccStyle, unrelated} {
			if err := db.AddTarget(parse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := db.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r10 := build(0) // default k = 10
	r2 := build(2)
	for i := range r10.Results {
		// S-LOG ignores the sigmoid entirely.
		var match *TargetScore
		for j := range r2.Results {
			if r2.Results[j].Target.Name == r10.Results[i].Target.Name {
				match = &r2.Results[j]
			}
		}
		if match == nil {
			t.Fatal("target sets differ")
		}
		if match.SLOG != r10.Results[i].SLOG {
			t.Error("S-LOG score changed with k")
		}
		if match.GES == r10.Results[i].GES {
			t.Errorf("GES of %s identical under k=2 and k=10", match.Target.Name)
		}
	}
}

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

func TestWorkersOption(t *testing.T) {
	// Worker count must not change results.
	mk := func(workers int) *Report {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 3}, Workers: workers})
		for _, src := range []string{iccStyle, unrelated} {
			if err := db.AddTarget(parse(t, src)); err != nil {
				t.Fatal(err)
			}
		}
		rep, err := db.Query(parse(t, gccStyle))
		if err != nil {
			t.Fatal(err)
		}
		return rep
	}
	r1, r4 := mk(1), mk(4)
	for i := range r1.Results {
		if r1.Results[i].GES != r4.Results[i].GES {
			t.Fatal("worker count changed scores")
		}
	}
}
