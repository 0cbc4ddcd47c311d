package core

import (
	"context"
	"math"
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/stats"
)

// TestH0ShiftsEveryTargetAlike pins what H0 does within one query. Eq. 1
// (§3.4) is GES(q|t) = Σᵢ wᵢ log Pr(sᵢ|t) − Σᵢ wᵢ log Pr(sᵢ|H0), and the
// second sum does not depend on t: GES minus the H0-free key
// Σᵢ wᵢ log max(σ(MaxVCPᵢ), ε) is the one constant −Σᵢ wᵢ log max(H0ᵢ, ε)
// for every target of a query. H0 shifts every score alike, so it cannot
// reorder targets; only rounding can. Checked on the partial of each
// Table 1 query, compiled by a toolchain C1 does not hold, against C1:
// every target's difference is the constant to within 1e-12 of the summed
// magnitudes of its terms.
func TestH0ShiftsEveryTargetAlike(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	db := NewDB(Options{})
	fillDB(t, db, buildDiffCorpus(t))
	qtc, ok := compile.ByName("gcc-4.6")
	if !ok {
		t.Fatal("no gcc-4.6 toolchain")
	}
	const bound = 1e-12
	worst := 0.0
	for _, v := range testcorpus.Vulns() {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		ges := map[*Target]float64{}
		for _, ts := range qp.Finalize().Results {
			ges[ts.Target] = ts.GES
		}
		k := qp.SigmoidK
		if k == 0 {
			k = stats.DefaultSigmoidK
		}
		shift, shiftMag := 0.0, 0.0 // −Σᵢ wᵢ log max(H0ᵢ, ε) and its terms' magnitudes
		for i, w := range qp.Weights {
			l := math.Log(math.Max(qp.H0[i].Evidence(w, qp.SigmoidK).H0Esh, stats.Epsilon))
			shift -= w * l
			shiftMag += w * math.Abs(l)
		}
		if len(qp.Targets) != len(ges) || len(qp.Targets) < 400 {
			t.Fatalf("%s: %d targets scored, %d in the partial", q.Name, len(ges), len(qp.Targets))
		}
		for _, ps := range qp.Targets {
			key, mag := 0.0, shiftMag
			for i, v := range ps.MaxVCP {
				l := math.Log(math.Max(stats.SigmoidWithK(v, k), stats.Epsilon))
				key += qp.Weights[i] * l
				mag += qp.Weights[i] * math.Abs(l)
			}
			rel := math.Abs(ges[ps.Target]-key-shift) / mag
			worst = max(worst, rel)
			if rel > bound {
				t.Errorf("%s vs %s: GES %v − key %v = %v, not the query's H0 shift %v (relative %.3g > %g)",
					q.Name, ps.Target.Name, ges[ps.Target], key, ges[ps.Target]-key, shift, rel, bound)
			}
		}
	}
	t.Logf("GES − key departs from the H0 shift by at most %.3g of the terms' magnitude", worst)
}
