package core

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// Retrieval is a heuristic-tier setting. At sound settings the exact
// candidate set of a query strand is every injectability-live target
// strand — a constant fraction of the corpus that no index makes
// sublinear — so the engine scans whatever Options.Retrieval says, never
// builds a table, and every score comes out bit-identical. With the
// heuristic tier on, the probe trades recall for sublinear candidate
// lookup; its top-k agreement against the exhaustive scan is pinned here
// so a regression shows up as a test failure, not as a silent recall
// cliff in production.

func TestRetrievalDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential retrieval run is slow")
	}
	procs := buildDiffCorpus(t)

	dbScan := NewDB(Options{})
	dbProbe := NewDB(Options{Retrieval: RetrievalProbe})
	fillDB(t, dbScan, procs)
	fillDB(t, dbProbe, procs)

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
		repScan, err := dbScan.Query(q)
		if err != nil {
			t.Fatalf("query %s (scan): %v", v.Alias, err)
		}
		repProbe, err := dbProbe.Query(q)
		if err != nil {
			t.Fatalf("query %s (probe): %v", v.Alias, err)
		}
		compareReportsExact(t, v.Alias, repScan, repProbe)
	}

	ss, ps := dbScan.Stats(), dbProbe.Stats()
	if ps.VerifierCalls == 0 {
		t.Fatal("the run made no verifier calls; harness is vacuous")
	}
	if ps.VerifierCalls != ss.VerifierCalls {
		t.Errorf("retrieval=probe made %d verifier calls at sound settings, the scan %d: it is to be the same loop", ps.VerifierCalls, ss.VerifierCalls)
	}
	if ps.RetrievalProbes != 0 || ps.RetrievalTableBuckets != 0 {
		t.Errorf("retrieval=probe at sound settings probed %d times over a table of %d buckets; want no probe and no table",
			ps.RetrievalProbes, ps.RetrievalTableBuckets)
	}
}

// compareReportsExact demands bit-identical scores in identical order —
// the strongest statement of "same computation, different loop shape".
func compareReportsExact(t *testing.T, alias string, a, b *Report) {
	t.Helper()
	if len(a.Results) != len(b.Results) {
		t.Errorf("query %s: %d results under scan, %d under probe", alias, len(a.Results), len(b.Results))
		return
	}
	var diffs []string
	for i := range a.Results {
		ra, rb := a.Results[i], b.Results[i]
		if ra.Target.Name != rb.Target.Name ||
			math.Float64bits(ra.SLOG) != math.Float64bits(rb.SLOG) ||
			math.Float64bits(ra.GES) != math.Float64bits(rb.GES) {
			diffs = append(diffs, fmt.Sprintf(
				"  rank %3d: scan %-52s GES=%.9f | probe %-52s GES=%.9f",
				i+1, ra.Target.Name, ra.GES, rb.Target.Name, rb.GES))
		}
	}
	if len(diffs) > 0 {
		if len(diffs) > 8 {
			diffs = diffs[:8]
		}
		t.Errorf("query %s: probe-mode scores are not bit-identical to scan at sound settings:\n%s",
			alias, strings.Join(diffs, "\n"))
	}
}

// TestRetrievalHeuristicRecall pins the recall of the heuristic probe
// tier against the exhaustive scan: band-bucket retrieval may drop
// pairs the scan's containment estimate would rescue, so top-k is not
// guaranteed identical — but it must stay close, and any change to the
// banding or probe rule that craters it fails here first.
func TestRetrievalHeuristicRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("differential retrieval run is slow")
	}
	procs := buildDiffCorpus(t)

	dbScan := NewDB(Options{})
	dbProbe := NewDB(Options{
		Retrieval:         RetrievalProbe,
		Prefilter:         PrefilterLSH,
		LSHMinContainment: sketch.SuggestedMinContainment,
	})
	fillDB(t, dbScan, procs)
	fillDB(t, dbProbe, procs)

	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	const topK = 10
	const minRecall = 0.7
	vulns := testcorpus.Vulns()
	if len(vulns) > 3 {
		vulns = vulns[:3]
	}
	for _, v := range vulns {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		repScan, err := dbScan.Query(q)
		if err != nil {
			t.Fatalf("query %s (scan): %v", v.Alias, err)
		}
		repProbe, err := dbProbe.Query(q)
		if err != nil {
			t.Fatalf("query %s (probe): %v", v.Alias, err)
		}
		truth := map[string]bool{}
		for i, ts := range repScan.Rank(stats.Esh) {
			if i >= topK {
				break
			}
			truth[ts.Target.Name] = true
		}
		hits := 0
		for i, ts := range repProbe.Rank(stats.Esh) {
			if i >= topK {
				break
			}
			if truth[ts.Target.Name] {
				hits++
			}
		}
		recall := float64(hits) / float64(len(truth))
		t.Logf("query %s: heuristic probe top-%d recall %.2f (%d/%d)", v.Alias, topK, recall, hits, len(truth))
		if recall < minRecall {
			t.Errorf("query %s: heuristic probe top-%d recall %.2f below %.2f", v.Alias, topK, recall, minRecall)
		}
	}
}

// TestProbeScalingSmoke is the sublinearity check behind the whole
// exercise, sized for CI: growing the corpus by a decoy factor must
// grow probe-mode verifier work per query by much less. The full 8×
// curve lives in BenchmarkQueryScale; this smoke asserts the shape.
func TestProbeScalingSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling smoke builds two corpora")
	}
	tcs := testToolchains(t, "gcc-4.9", "clang-3.5")
	build := func(synth int) *DB {
		procs, err := testcorpus.Build(testcorpus.BuildConfig{
			Toolchains:     tcs,
			IncludePatched: true,
			SynthVariants:  synth,
		})
		if err != nil {
			t.Fatal(err)
		}
		db := NewDB(Options{
			Retrieval:         RetrievalProbe,
			Prefilter:         PrefilterLSH,
			LSHBands:          12,
			LSHRows:           6,
			LSHMinContainment: sketch.SuggestedMinContainment,
		})
		fillDB(t, db, procs)
		return db
	}
	small := build(4)
	big := build(32)

	qtc, _ := compile.ByName("clang-3.5")
	q, err := testcorpus.CompileVuln(testcorpus.Vulns()[0], qtc, false)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := small.Query(q); err != nil {
		t.Fatal(err)
	}
	if _, err := big.Query(q); err != nil {
		t.Fatal(err)
	}

	smallCalls := float64(small.Stats().VerifierCalls)
	bigCalls := float64(big.Stats().VerifierCalls)
	strandRatio := float64(big.NumUniqueStrands()) / float64(small.NumUniqueStrands())
	callRatio := bigCalls / smallCalls
	t.Logf("strands %d -> %d (%.2fx); probe verifier calls %v -> %v (%.2fx)",
		small.NumUniqueStrands(), big.NumUniqueStrands(), strandRatio,
		smallCalls, bigCalls, callRatio)
	if smallCalls == 0 {
		t.Fatal("small-corpus query made no verifier calls; harness is vacuous")
	}
	if strandRatio < 1.5 {
		t.Fatalf("corpus did not grow (ratio %.2f); adjust SynthVariants", strandRatio)
	}
	if callRatio > 0.75*strandRatio {
		t.Errorf("probe verifier calls grew near-linearly with the corpus: %.2fx calls for %.2fx strands", callRatio, strandRatio)
	}
}
