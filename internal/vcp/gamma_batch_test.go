package vcp_test

// Differential guard for γ-batching at the corpus level: the batch
// width G is a dispatch knob, not a semantic one, so every width must
// produce Float64bits-identical VCP values and identical γ counts
// against the scalar reference over real lifted strand pairs, through
// the persistent Evaluator that core's pair loop uses. Widths other than
// the production one are reachable only via vcp.NewReferenceEvaluator.

import (
	"math"
	"testing"

	"repro/internal/vcp"
)

// TestGammaBatchDifferential pins that G ∈ {1, 2, 8, 16} all agree with
// the scalar interpreter on raw scores (bit-equal) and Correspondences
// over every compatible corpus strand pairing, and that the batch
// accounting is arithmetically consistent (a flush never carries more
// than G rows, and every counted correspondence either rode in some
// flush or was a memo hit — the widths share the strands' memos, so the
// later ones find most fingerprints already there).
func TestGammaBatchDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	strands := corpusStrands(t)
	if len(strands) > 16 {
		strands = strands[:16]
	}

	cfg := vcp.Config{}
	prep := make([]*vcp.Prepared, len(strands))
	for i, s := range strands {
		prep[i] = vcp.Prepare(s, cfg)
		if err := prep[i].Err(); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	// Scalar reference, computed once.
	type ref struct {
		v  float64
		st vcp.Stats
	}
	refs := make([][]ref, len(strands))
	for i := range strands {
		refs[i] = make([]ref, len(strands))
		ev := vcp.NewReferenceEvaluator(prep[i], cfg, 0)
		for j := range strands {
			v, st := ev.Compute(prep[j])
			refs[i][j] = ref{v, st}
		}
		ev.Close()
	}

	for _, g := range []int{1, 2, 8, 16} {
		for i := range strands {
			// The Evaluator persists one kernel across every pairing of
			// this query — exactly core's stage-3 loop shape.
			ev := vcp.NewReferenceEvaluator(prep[i], cfg, g)
			for j := range strands {
				v, st := ev.Compute(prep[j])
				want := refs[i][j]
				if math.Float64bits(v) != math.Float64bits(want.v) {
					t.Fatalf("pair (%d,%d) G=%d: VCP %v != scalar %v", i, j, g, v, want.v)
				}
				if st.Correspondences != want.st.Correspondences {
					t.Fatalf("pair (%d,%d) G=%d: %d γ != scalar %d γ",
						i, j, g, st.Correspondences, want.st.Correspondences)
				}
				if st.BatchRows+st.MemoHits < int64(st.Correspondences) {
					t.Fatalf("pair (%d,%d) G=%d: %d batch rows + %d memo hits < %d counted γ",
						i, j, g, st.BatchRows, st.MemoHits, st.Correspondences)
				}
				if st.BatchSlots != st.Batches*int64(g) || st.BatchRows > st.BatchSlots {
					t.Fatalf("pair (%d,%d) G=%d: %d rows over %d batches exceeds width",
						i, j, g, st.BatchRows, st.Batches)
				}
			}
			ev.Close()
		}
	}
}
