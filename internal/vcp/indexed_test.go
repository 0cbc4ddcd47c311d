package vcp_test

import (
	"math"
	"testing"

	"repro/internal/strand"
	"repro/internal/vcp"
)

// TestIndexedMatchesPrepared pins the split of a strand by direction. The
// matched side of a pair is read for its fingerprint set, role signatures
// and key only, so a target that is merely Indexed — no program, no memo —
// must score exactly as the same strand Prepared. Every unique strand of
// the C1 corpus is a target; a fixed sample of strands of a toolchain C1
// does not hold are the queries. Each pair's VCP must be Float64bits-equal
// and its correspondence count equal.
func TestIndexedMatchesPrepared(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	targets := uniqueBlockStrands(t, true, "gcc-4.9", "clang-3.5", "icc-15.0.1")
	held := uniqueBlockStrands(t, false, "gcc-4.6")
	const nQueries = 32
	if len(held) < nQueries {
		t.Fatalf("only %d held-out strands", len(held))
	}
	var queries []*strand.Strand
	for i := 0; i < nQueries; i++ {
		queries = append(queries, held[i*len(held)/nQueries])
	}

	var c vcp.Config
	idx := make([]*vcp.Indexed, len(targets))
	prep := make([]*vcp.Prepared, len(targets))
	for j, s := range targets {
		idx[j], prep[j] = vcp.Index(s, c), vcp.Prepare(s, c)
		if idx[j].Err() != nil || prep[j].Err() != nil {
			t.Fatalf("target %d: Index %v, Prepare %v", j, idx[j].Err(), prep[j].Err())
		}
		if idx[j].Key() != prep[j].Key() || idx[j].S != prep[j].S {
			t.Fatalf("target %d: Index and Prepare disagree on the strand", j)
		}
	}
	pairs, matched, gamma := 0, 0, 0
	for qi, qs := range queries {
		ev := vcp.NewEvaluator(vcp.Prepare(qs, c), c)
		for j := range targets {
			vi, si := ev.Compute(idx[j])
			vp, sp := ev.Compute(prep[j])
			if math.Float64bits(vi) != math.Float64bits(vp) || si.Correspondences != sp.Correspondences {
				t.Fatalf("query %d vs target %d: Indexed %v (%d γ), Prepared %v (%d γ)",
					qi, j, vi, si.Correspondences, vp, sp.Correspondences)
			}
			pairs++
			gamma += si.Correspondences
			if vi > 0 {
				matched++
			}
		}
		ev.Close()
	}
	if matched == 0 || gamma == 0 {
		t.Fatal("test premise broken: no pair matched anything")
	}
	t.Logf("%d queries × %d targets: %d pairs bit-equal (%d with VCP > 0, %d γ)", len(queries), len(targets), pairs, matched, gamma)
}
