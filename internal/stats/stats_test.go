package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSigmoidEndpoints(t *testing.T) {
	// §3.3.1: Pr ≈ 1 at VCP = 1, ≈ 0 at VCP = 0, exactly 0.5 at midpoint.
	if g := Sigmoid(1); g < 0.99 {
		t.Errorf("Sigmoid(1) = %v, want ≈ 1", g)
	}
	if g := Sigmoid(0); g > 0.01 {
		t.Errorf("Sigmoid(0) = %v, want ≈ 0", g)
	}
	if g := Sigmoid(0.5); math.Abs(g-0.5) > 1e-12 {
		t.Errorf("Sigmoid(0.5) = %v, want 0.5", g)
	}
}

func TestSigmoidMonotonic(t *testing.T) {
	f := func(a, b float64) bool {
		a = math.Abs(math.Mod(a, 1))
		b = math.Abs(math.Mod(b, 1))
		if a > b {
			a, b = b, a
		}
		return Sigmoid(a) <= Sigmoid(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSigmoidWithK(t *testing.T) {
	// Larger k is steeper: further from 0.5 at the same VCP.
	if SigmoidWithK(0.8, 20) <= SigmoidWithK(0.8, 5) {
		t.Error("steeper k not steeper above midpoint")
	}
	if SigmoidWithK(0.2, 20) >= SigmoidWithK(0.2, 5) {
		t.Error("steeper k not steeper below midpoint")
	}
}

func TestLES(t *testing.T) {
	// Matching better than random is positive evidence.
	if LES(0.9, 0.1) <= 0 {
		t.Error("strong match yields non-positive LES")
	}
	// Matching exactly as well as random is zero evidence.
	if got := LES(0.3, 0.3); math.Abs(got) > 1e-12 {
		t.Errorf("LES(p,p) = %v, want 0", got)
	}
	// Matching worse than random is negative evidence.
	if LES(0.01, 0.5) >= 0 {
		t.Error("weak match yields non-negative LES")
	}
	// Zero probabilities do not produce infinities.
	if math.IsInf(LES(0, 0.5), 0) || math.IsNaN(LES(0, 0)) {
		t.Error("LES not floored")
	}
}

func TestMethodString(t *testing.T) {
	if SVCP.String() != "S-VCP" || SLOG.String() != "S-LOG" || Esh.String() != "Esh" {
		t.Error("method names wrong")
	}
}

func TestPrPerMethod(t *testing.T) {
	if Pr(Esh, 0.75) != Sigmoid(0.75) {
		t.Error("Esh Pr is not the sigmoid")
	}
	if Pr(SLOG, 0.75) != 0.75 || Pr(SVCP, 0.75) != 0.75 {
		t.Error("sub-method Pr is not raw VCP")
	}
}

func TestH0Accumulator(t *testing.T) {
	var h H0Accumulator
	h.Add(1.0, 1)
	h.Add(0.0, 3)
	ev := h.Evidence(1)
	if math.Abs(ev.H0Raw-0.25) > 1e-12 {
		t.Errorf("H0Raw = %v, want 0.25", ev.H0Raw)
	}
	wantEsh := (Sigmoid(1.0) + 3*Sigmoid(0.0)) / 4
	if math.Abs(ev.H0Esh-wantEsh) > 1e-12 {
		t.Errorf("H0Esh = %v, want %v", ev.H0Esh, wantEsh)
	}
	// Empty accumulator yields zero evidence (floored downstream).
	var empty H0Accumulator
	if ev := empty.Evidence(1); ev.H0Esh != 0 || ev.H0Raw != 0 {
		t.Error("empty accumulator not zero")
	}
}

func TestScoreAmplifiesRareStrands(t *testing.T) {
	// The paper's key statistical claim: a match on a rare strand (low
	// H0) contributes more evidence than the same match on a common
	// strand (high H0).
	rare := StrandEvidence{Weight: 1, H0Esh: 0.01, H0Raw: 0.01}
	common := StrandEvidence{Weight: 1, H0Esh: 0.6, H0Raw: 0.6}
	if Score(Esh, 1.0, rare) <= Score(Esh, 1.0, common) {
		t.Error("rare strand match not amplified (Esh)")
	}
	if Score(SLOG, 1.0, rare) <= Score(SLOG, 1.0, common) {
		t.Error("rare strand match not amplified (S-LOG)")
	}
	// S-VCP ignores significance entirely.
	if Score(SVCP, 1.0, rare) != Score(SVCP, 1.0, common) {
		t.Error("S-VCP should ignore H0")
	}
}

func TestGESSums(t *testing.T) {
	evs := []StrandEvidence{
		{Weight: 1, H0Esh: 0.1, H0Raw: 0.1},
		{Weight: 2, H0Esh: 0.1, H0Raw: 0.1},
	}
	vcps := []float64{1.0, 1.0}
	got := GES(Esh, vcps, evs)
	want := Score(Esh, 1.0, evs[0]) + Score(Esh, 1.0, evs[1])
	if math.Abs(got-want) > 1e-12 {
		t.Errorf("GES = %v, want %v", got, want)
	}
	// Weight 2 counts double.
	if Score(Esh, 1.0, evs[1]) != 2*Score(Esh, 1.0, evs[0]) {
		t.Error("weights not applied")
	}
}

func TestGESDiscriminates(t *testing.T) {
	// A target matching every strand must outscore one matching none,
	// under every method.
	evs := []StrandEvidence{
		{Weight: 1, H0Esh: 0.05, H0Raw: 0.05},
		{Weight: 1, H0Esh: 0.05, H0Raw: 0.05},
		{Weight: 1, H0Esh: 0.05, H0Raw: 0.05},
	}
	full := []float64{1, 1, 1}
	none := []float64{0, 0, 0}
	for _, m := range []Method{SVCP, SLOG, Esh} {
		if GES(m, full, evs) <= GES(m, none, evs) {
			t.Errorf("%v: full match does not outscore no match", m)
		}
	}
}

// referenceAdd is H0Accumulator.Add as first written: one sigmoid per
// observation. The production Add takes the sigmoid of zero once.
func referenceAdd(h *H0Accumulator, vcp float64, multiplicity int) {
	k := h.K
	if k == 0 {
		k = DefaultSigmoidK
	}
	w := float64(multiplicity)
	h.sumEsh += SigmoidWithK(vcp, k) * w
	h.sumRaw += vcp * w
	h.count += w
}

// TestHoistedFinalizeBitIdentical holds the two Finalize shortcuts — the
// zero-column sigmoid in Add and the per-strand Scorer — to the plain
// per-observation code, Float64bits for Float64bits, on rows shaped like
// the engine's: mostly zero, a handful of distinct fractions.
func TestHoistedFinalizeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []float64{0, 1, 10, 40, 1e6} {
		for trial := 0; trial < 50; trial++ {
			den := float64(5 + rng.Intn(40))
			got, want := H0Accumulator{K: k}, H0Accumulator{K: k}
			for j := 0; j < 300; j++ {
				v := 0.0
				if rng.Intn(4) == 0 {
					v = float64(rng.Intn(int(den)+1)) / den
				}
				mult := rng.Intn(5)
				got.Add(v, mult)
				referenceAdd(&want, v, mult)
			}
			ev, wantEv := got.Evidence(float64(1+rng.Intn(3))), want.Evidence(1)
			wantEv.Weight = ev.Weight
			if math.Float64bits(ev.H0Esh) != math.Float64bits(wantEv.H0Esh) ||
				math.Float64bits(ev.H0Raw) != math.Float64bits(wantEv.H0Raw) {
				t.Fatalf("k=%v: H0 (%x, %x), reference (%x, %x)", k,
					math.Float64bits(ev.H0Esh), math.Float64bits(ev.H0Raw),
					math.Float64bits(wantEv.H0Esh), math.Float64bits(wantEv.H0Raw))
			}
			sc := ev.Scorer()
			// More distinct values than the Scorer remembers, each asked
			// for repeatedly.
			for n := 0; n < 4*maxScored; n++ {
				v := float64(rng.Intn(2*maxScored)) / float64(2*maxScored)
				slog, esh := sc.Scores(v)
				if ws := Score(SLOG, v, ev); math.Float64bits(slog) != math.Float64bits(ws) {
					t.Fatalf("k=%v v=%v: S-LOG %x, Score %x", k, v, math.Float64bits(slog), math.Float64bits(ws))
				}
				if we := Score(Esh, v, ev); math.Float64bits(esh) != math.Float64bits(we) {
					t.Fatalf("k=%v v=%v: Esh %x, Score %x", k, v, math.Float64bits(esh), math.Float64bits(we))
				}
			}
		}
	}
}
