package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// The batched SoA kernel is an optimisation, not a new verifier: every
// fingerprint — and therefore every VCP, every GES score and every
// ranking — must be byte-identical to the scalar interpreter's. This
// harness builds the same corpus into a production DB and a DB whose
// evaluator factory is the scalar reference (the one seam, reachable
// from this package's tests only), runs vulnerability queries through
// both, and compares rankings, raw scores and γ counts; it also pins
// that the batch engine actually engaged (γ time was attributed to the
// kernel, batches were flushed and a nonzero instruction prefix was
// hoisted).
func TestKernelDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential kernel run is slow")
	}
	procs := buildDiffCorpus(t)

	dbScalar := NewDB(Options{})
	dbScalar.newEval = func(q *vcp.Prepared, cfg vcp.Config) *vcp.Evaluator {
		return vcp.NewReferenceEvaluator(q, cfg, 0)
	}
	dbBatch := NewDB(Options{})
	fillDB(t, dbScalar, procs)
	fillDB(t, dbBatch, procs)

	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	vulns := testcorpus.Vulns()
	if len(vulns) > 3 {
		vulns = vulns[:3]
	}
	for _, v := range vulns {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		repScalar, err := dbScalar.Query(q)
		if err != nil {
			t.Fatalf("query %s (scalar): %v", v.Alias, err)
		}
		repBatch, err := dbBatch.Query(q)
		if err != nil {
			t.Fatalf("query %s (batch): %v", v.Alias, err)
		}
		for _, m := range []stats.Method{stats.Esh, stats.SLOG} {
			if s, b := rankingNames(repScalar, m), rankingNames(repBatch, m); s != b {
				t.Errorf("query %s: %v ranking diverges between kernels", v.Alias, m)
			}
		}
		// Rankings could coincide while scores drift; the fingerprints
		// are supposed to be byte-identical, so the scores must be too.
		var drift []string
		for i := range repScalar.Results {
			s, b := repScalar.Results[i], repBatch.Results[i]
			if s.Target.Name != b.Target.Name ||
				math.Float64bits(s.GES) != math.Float64bits(b.GES) ||
				math.Float64bits(s.SLOG) != math.Float64bits(b.SLOG) {
				drift = append(drift, fmt.Sprintf(
					"  %-52s scalar GES=%.9f batch GES=%.9f", s.Target.Name, s.GES, b.GES))
			}
		}
		if len(drift) > 0 {
			t.Errorf("query %s: %d targets with non-identical scores:\n%s",
				v.Alias, len(drift), strings.Join(drift[:min(5, len(drift))], "\n"))
		}
	}

	ss, bs := dbScalar.Stats(), dbBatch.Stats()
	if ss.VerifierCorrespondences != bs.VerifierCorrespondences {
		t.Errorf("γ counts diverge: scalar=%d batch=%d",
			ss.VerifierCorrespondences, bs.VerifierCorrespondences)
	}
	if bs.KernelNanos == 0 || ss.KernelNanos == 0 {
		t.Error("kernel time telemetry not recorded")
	}
	if ss.GammaBatches != 0 {
		t.Errorf("scalar reference flushed %d γ batches", ss.GammaBatches)
	}
	if bs.GammaBatches == 0 || bs.GammaBatchRows < bs.GammaBatches {
		t.Errorf("batch engine not engaged: %d batches, %d rows", bs.GammaBatches, bs.GammaBatchRows)
	}
	if bs.KernelInstrs == 0 || bs.KernelPrefixInstrs == 0 {
		t.Errorf("hoisting telemetry empty: prefix=%d total=%d",
			bs.KernelPrefixInstrs, bs.KernelInstrs)
	}
	t.Logf("kernel γ time: scalar=%.1fms batch=%.1fms; hoisted %d/%d instrs (%.1f%%)",
		float64(ss.KernelNanos)/1e6, float64(bs.KernelNanos)/1e6,
		bs.KernelPrefixInstrs, bs.KernelInstrs,
		100*float64(bs.KernelPrefixInstrs)/float64(bs.KernelInstrs))
}
