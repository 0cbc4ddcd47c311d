package core_test

import (
	"context"
	"math"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	testcorpus "repro/internal/corpus"
	"repro/internal/engineflags"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// TestSoundRowsMatchExhaustivePairs is the oracle for stage 3. A loop in
// this test computes every row the slow way: an identical strand scores 1,
// a pair outside the §5.5 size window 0, and every other pair
// vcp.Compute. It runs no injectability test, reads no sketch and
// keeps no cache. Every live column of every row a database computes must
// equal it bit for bit, on a fresh corpus and again after tombstones kill
// columns the rows already knew (a dead column has multiplicity 0 and no
// live target, so nothing reads it). The verifier-call count pins the other
// half of the claim: a forward-dead pair never reaches a verifier, whatever
// options the database was built with.
func TestSoundRowsMatchExhaustivePairs(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive oracle run is slow")
	}
	toolchain := func(name string) compile.Toolchain {
		tc, ok := compile.ByName(name)
		if !ok {
			t.Fatalf("unknown toolchain %q", name)
		}
		return tc
	}
	procs, err := testcorpus.Build(testcorpus.BuildConfig{
		Toolchains:     []compile.Toolchain{toolchain("gcc-4.9"), toolchain("clang-3.5"), toolchain("icc-15.0.1")},
		IncludePatched: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var queries []*asm.Proc
	for _, v := range testcorpus.Vulns()[:3] {
		q, err := testcorpus.CompileVuln(v, toolchain("clang-3.5"), false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		queries = append(queries, q)
	}

	dbs := []struct {
		name string
		db   *core.DB
	}{
		{"Options{}", core.NewDB(core.Options{})},
		{"engineflags.Defaults()", core.NewDB(engineflags.Defaults())},
	}
	for _, d := range dbs {
		for _, p := range procs {
			if err := d.db.AddTarget(p); err != nil {
				t.Fatalf("index %s: %v", p.Name, err)
			}
		}
	}

	ctx := context.Background()
	// check compares every database's rows with the oracle's and returns
	// the oracle's rows of the first query.
	check := func(when string) [][]float64 {
		var first [][]float64
		for qi, q := range queries {
			pl, err := dbs[0].db.Plan(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			cols := dbs[0].db.ColumnStrands()
			want := make([][]float64, len(pl.Strands()))
			for i, s := range pl.Strands() {
				want[i] = exhaustiveRow(s, cols)
			}
			if qi == 0 {
				first = want
			}
			for _, d := range dbs {
				rows, err := d.db.QueryRows(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				if len(rows) != len(want) {
					t.Fatalf("%s, %s, query %s: %d rows, oracle has %d", when, d.name, q.Name, len(rows), len(want))
				}
				for i, row := range rows {
					if len(row) != len(want[i]) {
						t.Fatalf("%s, %s, query %s row %d: %d columns, oracle has %d", when, d.name, q.Name, i, len(row), len(want[i]))
					}
					for j, v := range row {
						if cols[j] != nil && math.Float64bits(v) != math.Float64bits(want[i][j]) {
							t.Fatalf("%s, %s, query %s: VCP(strand %d, column %d) = %v, exhaustive loop says %v",
								when, d.name, q.Name, i, j, v, want[i][j])
						}
					}
				}
			}
		}
		return first
	}

	before := check("fresh corpus")
	for _, d := range dbs {
		if calls := d.db.Stats().VCPCacheMisses; calls != 13792 {
			t.Errorf("%s: %d verifier calls, want 13792", d.name, calls)
		}
	}

	// Tombstone the first query's three best-ranked targets: columns die
	// that its rows already hold nonzero values for.
	rep, err := dbs[0].db.Query(queries[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, ts := range rep.Results[:3] {
		for _, d := range dbs {
			if _, err := d.db.ApplyRemove(ts.Target.Name); err != nil {
				t.Fatal(err)
			}
		}
	}
	cols := dbs[0].db.ColumnStrands()
	killed := 0
	for _, row := range before {
		for j, v := range row {
			if v != 0 && cols[j] == nil {
				killed++
			}
		}
	}
	if killed == 0 {
		t.Fatal("test premise broken: the removes killed no column the rows knew")
	}
	check("after removes")
}

// exhaustiveRow is the oracle's row of VCP(s, u) over the columns cols
// (nil: a dead column).
func exhaustiveRow(s *strand.Strand, cols []*vcp.Indexed) []float64 {
	var cfg vcp.Config
	q := vcp.Prepare(s, cfg)
	row := make([]float64, len(cols))
	for j, u := range cols {
		switch {
		case u == nil:
		case u.Key() == s.CanonicalKey():
			row[j] = 1
		case !vcp.SizeCompatible(s, u.S, vcp.Default().SizeRatio):
		default:
			row[j] = vcp.Compute(q, u, cfg)
		}
	}
	return row
}
