package vcp_test

import (
	"testing"

	"repro/internal/vcp"
)

// TestSelfMatchVCP is ROADMAP R(d)'s verifier half, an oracle that needs
// no second implementation: a strand matched against itself has every
// variable equivalent under the identity correspondence, so VCP(s, s) is
// exactly 1 for every unique block strand of the C1 corpus. The engine
// answers an identical-key pair without calling the verifier, so only this
// test puts the verifier on the self pairs. The one allowed exception is
// a γ search stopped at MaxCorrespondences before it reached a perfect
// match; such pairs are counted and logged, never forgiven otherwise.
func TestSelfMatchVCP(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus census is slow")
	}
	strands := uniqueBlockStrands(t, true, "gcc-4.9", "clang-3.5", "icc-15.0.1")
	c := vcp.Default()
	capped, gamma := 0, 0
	for i, s := range strands {
		v, st := vcp.ComputeWithStats(vcp.Prepare(s, c), vcp.Index(s, c), c)
		gamma += st.Correspondences
		switch {
		case v == 1:
		case st.Correspondences >= c.MaxCorrespondences:
			capped++
			t.Logf("strand %d (%d vars, %d inputs): VCP %v after the γ cap of %d", i, s.NumVars(), len(s.Inputs), v, c.MaxCorrespondences)
		default:
			t.Errorf("strand %d (%d vars, %d inputs): VCP(s, s) = %v after %d of %d correspondences, want 1",
				i, s.NumVars(), len(s.Inputs), v, st.Correspondences, c.MaxCorrespondences)
		}
	}
	t.Logf("%d unique strands against themselves: %d at VCP 1, %d stopped at the γ cap (%d γ)",
		len(strands), len(strands)-capped, capped, gamma)
}
