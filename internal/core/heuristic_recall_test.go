package core

import (
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/stats"
)

// TestHeuristicTierRecall holds the heuristic tier's answers near the sound
// tier's. At LSHMinContainment > 0 stage 3 also skips the live pairs the
// sketches call dissimilar, so rankings may move; this pins how far. The
// floors are the values measured when the test was written — 28 of the 30
// sound top-10 places kept (Shellshock loses two) and every top-1 kept —
// so any change to the banding, the containment estimate or the candidate
// rule that costs recall fails here first.
func TestHeuristicTierRecall(t *testing.T) {
	if testing.Short() {
		t.Skip("heuristic recall run is slow")
	}
	procs := buildDiffCorpus(t)
	sound := NewDB(Options{})
	heuristic := NewDB(Options{LSHMinContainment: sketch.SuggestedMinContainment})
	fillDB(t, sound, procs)
	fillDB(t, heuristic, procs)

	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	const topK, minTop10, minTop1 = 10, 28, 3
	vulns := testcorpus.Vulns()[:3]
	hits, total, top1 := 0, 0, 0
	for _, v := range vulns {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		want, err := sound.Query(q)
		if err != nil {
			t.Fatalf("query %s (sound): %v", v.Alias, err)
		}
		got, err := heuristic.Query(q)
		if err != nil {
			t.Fatalf("query %s (heuristic): %v", v.Alias, err)
		}
		truth := map[string]bool{}
		for _, ts := range want.Rank(stats.Esh)[:topK] {
			truth[ts.Target.Name] = true
		}
		agree := 0
		for _, ts := range got.Rank(stats.Esh)[:topK] {
			if truth[ts.Target.Name] {
				agree++
			}
		}
		if got.Rank(stats.Esh)[0].Target.Name == want.Rank(stats.Esh)[0].Target.Name {
			top1++
		}
		t.Logf("query %s: top-%d agreement %d/%d", v.Alias, topK, agree, len(truth))
		hits += agree
		total += len(truth)
	}
	t.Logf("top-%d agreement %d/%d, top-1 %d/%d", topK, hits, total, top1, len(vulns))
	if sound.Stats().LSHPairsSkipped >= heuristic.Stats().LSHPairsSkipped {
		t.Fatal("the heuristic tier skipped no more pairs than the sound tier; the test is vacuous")
	}
	if hits < minTop10 {
		t.Errorf("the heuristic tier keeps %d of the sound tier's %d top-%d places, floor %d", hits, total, topK, minTop10)
	}
	if top1 < minTop1 {
		t.Errorf("the heuristic tier keeps %d of %d top-1 answers, floor %d", top1, len(vulns), minTop1)
	}
}
