package stats

import (
	"encoding/json"
	"math"
	"math/rand"
	"slices"
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

func TestH0Accumulator(t *testing.T) {
	var h H0Accumulator
	h.Add(1.0, 1)
	h.Add(0.0, 3)
	ev := h.Evidence(1, 0)
	if math.Abs(ev.H0Raw-0.25) > 1e-12 {
		t.Errorf("H0Raw = %v, want 0.25", ev.H0Raw)
	}
	wantEsh := (Sigmoid(1.0) + 3*Sigmoid(0.0)) / 4
	if math.Abs(ev.H0Esh-wantEsh) > 1e-12 {
		t.Errorf("H0Esh = %v, want %v", ev.H0Esh, wantEsh)
	}
	// Empty accumulator yields zero evidence (floored downstream).
	var empty H0Accumulator
	if ev := empty.Evidence(1, 0); ev.H0Esh != 0 || ev.H0Raw != 0 {
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

// engineRow draws n observations shaped like an engine row: mostly zero,
// the rest fractions k/den, multiplicities 0 (a dead strand) to 4.
type obs struct {
	v float64
	m int
}

func engineRow(rng *rand.Rand, n int) []obs {
	den := 5 + rng.Intn(40)
	row := make([]obs, n)
	for j := range row {
		if rng.Intn(4) == 0 {
			row[j].v = float64(rng.Intn(den+1)) / float64(den)
		}
		row[j].m = rng.Intn(5)
	}
	return row
}

func accumulate(row []obs) *H0Accumulator {
	h := new(H0Accumulator)
	for _, o := range row {
		h.Add(o.v, o.m)
	}
	return h
}

func sameEvidence(a, b StrandEvidence) bool {
	return math.Float64bits(a.H0Esh) == math.Float64bits(b.H0Esh) &&
		math.Float64bits(a.H0Raw) == math.Float64bits(b.H0Raw) && a.Weight == b.Weight && a.K == b.K
}

// TestH0AccumulatorOrderFree holds Evidence to the multiset of
// observations, Float64bits for Float64bits: any permutation of the same
// Add calls, any partition of them into accumulators merged back with
// Merge, the zero-multiplicity adds dropped or doubled, and a trip through
// JSON or through Len/At/Append all give the same H0.
func TestH0AccumulatorOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []float64{0, 1, 10, 40, 1e6} {
		for trial := 0; trial < 50; trial++ {
			row := engineRow(rng, 300)
			want := accumulate(row).Evidence(1, k)
			check := func(what string, h *H0Accumulator) {
				t.Helper()
				if got := h.Evidence(1, k); !sameEvidence(got, want) {
					t.Fatalf("k=%v trial %d, %s: H0 (%x, %x), in row order (%x, %x)", k, trial, what,
						math.Float64bits(got.H0Esh), math.Float64bits(got.H0Raw),
						math.Float64bits(want.H0Esh), math.Float64bits(want.H0Raw))
				}
			}

			perm := slices.Clone(row)
			rng.Shuffle(len(perm), func(a, b int) { perm[a], perm[b] = perm[b], perm[a] })
			check("permuted", accumulate(perm))

			parts := make([][]obs, 1+rng.Intn(5))
			for _, o := range perm {
				p := rng.Intn(len(parts))
				parts[p] = append(parts[p], o)
			}
			merged := new(H0Accumulator)
			for _, p := range rng.Perm(len(parts)) {
				merged.Merge(accumulate(parts[p]))
			}
			check("partitioned and merged", merged)
			into := accumulate(parts[0])
			for _, p := range parts[1:] {
				into.Merge(accumulate(p))
			}
			check("merged into the first part", into)

			var live, dead []obs
			for _, o := range row {
				if o.m > 0 {
					live = append(live, o)
				} else {
					dead = append(dead, o, obs{v: float64(rng.Intn(3)) / 2})
				}
			}
			check("dead adds dropped", accumulate(live))
			check("dead adds doubled", accumulate(append(dead, row...)))

			b, err := json.Marshal(accumulate(row))
			if err != nil {
				t.Fatal(err)
			}
			var back H0Accumulator
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			check("JSON round trip", &back)
			h, appended := accumulate(perm), new(H0Accumulator)
			for i := 0; i < h.Len(); i++ {
				v, m := h.At(i)
				if err := appended.Append(v, uint64(m)); err != nil {
					t.Fatalf("Append(At(%d)): %v", i, err)
				}
			}
			check("At and Append", appended)
		}
	}
}

// TestH0AccumulatorAppendRefuses pins what a decoder may not hand an
// accumulator.
func TestH0AccumulatorAppendRefuses(t *testing.T) {
	for name, tc := range map[string]struct {
		prefix []float64
		v      float64
		m      uint64
	}{
		"NaN":                {nil, math.NaN(), 1},
		"+Inf":               {nil, math.Inf(1), 1},
		"-Inf":               {nil, math.Inf(-1), 1},
		"negative":           {nil, -0.25, 1},
		"above one":          {nil, 1.5, 1},
		"zero multiplicity":  {nil, 0.5, 0},
		"repeated":           {[]float64{0, 0.5}, 0.5, 1},
		"descending":         {[]float64{0.5}, 0.25, 1},
		"zero after nonzero": {[]float64{0.5}, 0, 1},
		"sum overflows":      {[]float64{0}, 0.5, maxMultiplicity},
	} {
		var h H0Accumulator
		for _, v := range tc.prefix {
			if err := h.Append(v, 1); err != nil {
				t.Fatalf("%s: prefix %v: %v", name, v, err)
			}
		}
		if err := h.Append(tc.v, tc.m); err == nil {
			t.Errorf("%s: Append(%v, %d) accepted", name, tc.v, tc.m)
		}
	}
	var h H0Accumulator
	if err := h.Append(0, maxMultiplicity); err != nil {
		t.Errorf("a total of exactly 2^53: %v", err)
	}
	if err := json.Unmarshal([]byte(`{"vcp":[0.5,0.25],"mult":[1,1]}`), &h); err == nil {
		t.Error("UnmarshalJSON accepted a descending histogram")
	}
	if err := json.Unmarshal([]byte(`{"vcp":[0.5],"mult":[1,1]}`), &h); err == nil {
		t.Error("UnmarshalJSON accepted more multiplicities than VCPs")
	}
}

// TestHoistedFinalizeBitIdentical holds the per-strand Scorer, Finalize's
// shortcut, to the plain per-target Score, Float64bits for Float64bits,
// on H0 estimates from rows shaped like the engine's.
func TestHoistedFinalizeBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, k := range []float64{0, 1, 10, 40, 1e6} {
		for trial := 0; trial < 50; trial++ {
			ev := accumulate(engineRow(rng, 300)).Evidence(float64(1+rng.Intn(3)), k)
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
