package core

import (
	"cmp"
	"context"
	"math"
	"slices"
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/rocauc"
	"repro/internal/stats"
)

// eachTable1Partial calls fn with the partial of each Table 1 query,
// compiled by a toolchain C1 does not hold (gcc-4.6), against C1.
func eachTable1Partial(t *testing.T, fn func(v testcorpus.Vuln, qp *QueryPartial)) {
	t.Helper()
	db := NewDB(Options{})
	fillDB(t, db, buildDiffCorpus(t))
	qtc, ok := compile.ByName("gcc-4.6")
	if !ok {
		t.Fatal("no gcc-4.6 toolchain")
	}
	for _, v := range testcorpus.Vulns() {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(qp.Targets) < 400 {
			t.Fatalf("%s: %d targets in the partial", q.Name, len(qp.Targets))
		}
		fn(v, qp)
	}
}

// h0FreeKey is a target's GES without its H0 sum, Σᵢ wᵢ log max(σ(MaxVCPᵢ), ε),
// and the summed magnitudes of its terms.
func h0FreeKey(qp *QueryPartial, ps PartialScore) (key, mag float64) {
	for i, v := range ps.MaxVCP {
		l := math.Log(math.Max(stats.Sigmoid(v), stats.Epsilon))
		key += qp.Weights[i] * l
		mag += qp.Weights[i] * math.Abs(l)
	}
	return key, mag
}

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
	const bound = 1e-12
	worst := 0.0
	eachTable1Partial(t, func(_ testcorpus.Vuln, qp *QueryPartial) {
		ges := map[*Target]float64{}
		for _, ts := range qp.Finalize().Results {
			ges[ts.Target] = ts.GES
		}
		shift, shiftMag := 0.0, 0.0 // −Σᵢ wᵢ log max(H0ᵢ, ε) and its terms' magnitudes
		for i, w := range qp.Weights {
			l := math.Log(math.Max(qp.H0[i].Evidence(w, stats.DefaultSigmoidK).H0Esh, stats.Epsilon))
			shift -= w * l
			shiftMag += w * math.Abs(l)
		}
		if len(qp.Targets) != len(ges) {
			t.Fatalf("%s: %d targets scored, %d in the partial", qp.QueryName, len(ges), len(qp.Targets))
		}
		for _, ps := range qp.Targets {
			key, mag := h0FreeKey(qp, ps)
			mag += shiftMag
			rel := math.Abs(ges[ps.Target]-key-shift) / mag
			worst = max(worst, rel)
			if rel > bound {
				t.Errorf("%s vs %s: GES %v − key %v = %v, not the query's H0 shift %v (relative %.3g > %g)",
					qp.QueryName, ps.Target.Name, ges[ps.Target], key, ges[ps.Target]-key, shift, rel, bound)
			}
		}
	})
	t.Logf("GES − key departs from the H0 shift by at most %.3g of the terms' magnitude", worst)
}

// TestRankingIgnoresH0 pins the consequence: within one query, ranking by
// GES and ranking by the H0-free key give Table 1 the same row. For each
// Table 1 query against C1, both rank the partial's targets (ties in
// target order, as Finalize breaks them), and ROC AUC, CROC AUC and the
// false positives before the last true positive must be identical. Every
// pair of targets the two orders invert must hold adjacent key values —
// no third key strictly between them — that agree to within 1e-12 of
// their terms' magnitudes: rounding, ordering targets that are
// mathematically tied. (Adjacent in key, not in rank: one key an ULP
// below a run of equal keys can tie the run in GES, and then moves past
// all of it.)
func TestRankingIgnoresH0(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	const bound = 1e-12
	worst, inverted := 0.0, 0
	eachTable1Partial(t, func(v testcorpus.Vuln, qp *QueryPartial) {
		n := len(qp.Targets)
		pos := make(map[*Target]int, n)
		keys, mags := make([]float64, n), make([]float64, n)
		for i, ps := range qp.Targets {
			pos[ps.Target] = i
			keys[i], mags[i] = h0FreeKey(qp, ps)
		}
		ges := make([]float64, n)
		byGES := make([]int, 0, n)
		for _, ts := range qp.Finalize().Results {
			ges[pos[ts.Target]] = ts.GES
			byGES = append(byGES, pos[ts.Target])
		}
		byKey := make([]int, n)
		for i := range byKey {
			byKey[i] = i
		}
		slices.SortStableFunc(byKey, func(a, b int) int { return cmp.Compare(keys[b], keys[a]) })

		// Every pair the two orders invert must sit on adjacent key values:
		// no target's key lies strictly between theirs.
		rankG, rankK, level := make([]int, n), make([]int, n), make([]int, n)
		for r := range byGES {
			rankG[byGES[r]], rankK[byKey[r]] = r, r
			if r > 0 {
				level[byKey[r]] = level[byKey[r-1]]
				if keys[byKey[r]] != keys[byKey[r-1]] {
					level[byKey[r]]++
				}
			}
		}
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if (rankG[a] < rankG[b]) == (rankK[a] < rankK[b]) {
					continue
				}
				inverted++
				rel := math.Abs(keys[a]-keys[b]) / (mags[a] + mags[b])
				worst = max(worst, rel)
				if d := level[a] - level[b]; d > 1 || d < -1 || rel > bound {
					t.Errorf("%s: targets %d and %d swap with keys %v and %v, %d key values apart (relative %.3g, bound %g)",
						qp.QueryName, a, b, keys[a], keys[b], max(d, -d), rel, bound)
				}
			}
		}

		positives := 0
		samples := func(scores []float64) []rocauc.Sample {
			out := make([]rocauc.Sample, n)
			for i, ps := range qp.Targets {
				out[i] = rocauc.Sample{Score: scores[i], Positive: ps.Target.Source.SourceSym == v.FuncName}
				if out[i].Positive {
					positives++
				}
			}
			return out
		}
		g, h := samples(ges), samples(keys)
		if positives == 0 {
			t.Fatalf("%s: no true positive in C1", qp.QueryName)
		}
		if gf, hf := rocauc.FalsePositives(g), rocauc.FalsePositives(h); gf != hf {
			t.Errorf("%s: FP %d by GES, %d by key", qp.QueryName, gf, hf)
		}
		if gr, hr := rocauc.ROC(g), rocauc.ROC(h); gr != hr {
			t.Errorf("%s: ROC %v by GES, %v by key", qp.QueryName, gr, hr)
		}
		if gc, hc := rocauc.CROC(g, rocauc.DefaultAlpha), rocauc.CROC(h, rocauc.DefaultAlpha); gc != hc {
			t.Errorf("%s: CROC %v by GES, %v by key", qp.QueryName, gc, hc)
		}
	})
	t.Logf("GES and key orders invert %d pairs of targets, keys within %.3g of their terms' magnitudes", inverted, worst)
}
