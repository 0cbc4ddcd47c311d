package sketch

import (
	"reflect"
	"testing"
)

// synthSummaries derives a deterministic summary set from a byte
// string: every 4 bytes become one strand's typed input counts and a
// small synthetic feature set. Shared by the unit tests and the fuzz
// target so corpus entries shrink meaningfully.
func synthSummaries(data []byte, cfg Config) []Summary {
	cfg = cfg.Normalized()
	var sums []Summary
	for i := 0; i+4 <= len(data) && len(sums) < 64; i += 4 {
		nInt := int(data[i] % 5)
		nMem := int(data[i+1] % 3)
		nf := int(data[i+2]%29) + 1
		seed := splitmix64(uint64(data[i+3]) + 1)
		feats := make([]uint64, nf)
		for k := range feats {
			seed = splitmix64(seed)
			feats[k] = seed
		}
		sums = append(sums, Summary{
			Sig:   FromFeatures(feats, cfg),
			NFeat: nf,
			NInt:  nInt,
			NMem:  nMem,
		})
	}
	return sums
}

// soundSet is the reference sound candidate rule: every strand whose
// typed counts inject into the query's or vice versa.
func soundSet(rx *RetrievalIndex, sums []Summary, q Summary) map[int32]bool {
	set := map[int32]bool{}
	for id := range sums {
		if q.Injects(sums[id]) || sums[id].Injects(q) {
			set[int32(id)] = true
		}
	}
	return set
}

func checkProbe(t *testing.T, rx *RetrievalIndex, sums []Summary, self int) {
	t.Helper()
	q := sums[self]
	scratch := make([]bool, rx.Len())
	ids, sound := rx.Probe(q, scratch, nil)

	for _, v := range scratch {
		if v {
			t.Fatal("Probe left scratch dirty")
		}
	}
	want := soundSet(rx, sums, q)
	if sound != len(want) {
		t.Fatalf("Probe reports %d sound candidates, brute force finds %d", sound, len(want))
	}
	seen := map[int32]bool{}
	for i, id := range ids {
		if id < 0 || int(id) >= rx.Len() {
			t.Fatalf("candidate id %d out of range [0,%d)", id, rx.Len())
		}
		if i > 0 && ids[i-1] >= id {
			t.Fatal("candidate ids are not sorted and unique")
		}
		if !want[id] {
			t.Fatalf("candidate %d is not injectability-live against the query", id)
		}
		seen[id] = true
	}
	if !seen[int32(self)] {
		t.Fatalf("strand %d does not retrieve itself", self)
	}
	// A live strand sharing any band bucket with the query must be
	// retrieved, and nothing that shares no bucket may be.
	collides := func(id int32) bool {
		for b := 0; b < rx.cfg.Bands; b++ {
			if bandKeyFor(q.Sig, rx.cfg.Rows, b) == bandKeyFor(sums[id].Sig, rx.cfg.Rows, b) {
				return true
			}
		}
		return false
	}
	for id := range want {
		if seen[id] != collides(id) {
			t.Fatalf("live strand %d: retrieved=%v collides=%v", id, seen[id], collides(id))
		}
	}
}

func fuzzConfigs() []Config {
	return []Config{
		{Bands: 4, Rows: 2},
		{Bands: 4, Rows: 2, MinContainment: SuggestedMinContainment},
		{Bands: 6, Rows: 3, MinContainment: 0.2},
	}
}

// FuzzRetrieval asserts the probe-table invariants for arbitrary
// summary sets: deterministic builds, self-retrieval, sorted unique
// live candidate sets, a sound-set size equal to the brute-force
// injectability rule's, exactly the live band collisions retrieved, and
// a clean scratch buffer after every probe.
func FuzzRetrieval(f *testing.F) {
	f.Add([]byte{1, 0, 20, 7, 2, 1, 3, 9, 1, 0, 20, 7})
	f.Add([]byte{0, 0, 1, 1})
	f.Add([]byte{4, 2, 28, 255, 4, 2, 28, 255, 0, 1, 14, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 512 {
			return // bound build cost, not a correctness limit
		}
		for _, cfg := range fuzzConfigs() {
			sums := synthSummaries(data, cfg)
			if len(sums) == 0 {
				return
			}
			rx := BuildRetrieval(sums, cfg)
			if again := BuildRetrieval(sums, cfg); !reflect.DeepEqual(again, rx) {
				t.Fatal("BuildRetrieval is not deterministic")
			}
			for id := range sums {
				checkProbe(t, rx, sums, id)
			}
		}
	})
}

func TestRetrievalProbeMatchesCandidates(t *testing.T) {
	// The probe and Index.Candidates are two loops over one candidate
	// rule family, for the same summaries in the same order: the sound
	// set size the probe reports is what Candidates marks at sound
	// settings, and what the probe retrieves is a subset of what
	// Candidates marks at the same heuristic settings (the scan keeps
	// the containment rescue and small-set escapes the probe drops).
	sound := Config{Bands: 4, Rows: 2}
	heur := Config{Bands: 4, Rows: 2, MinContainment: SuggestedMinContainment}
	data := []byte{
		1, 0, 20, 7, 2, 1, 3, 9, 1, 0, 20, 8, 0, 0, 1, 1,
		3, 2, 25, 77, 1, 1, 9, 4, 2, 0, 17, 5, 4, 1, 28, 6,
	}
	sums := synthSummaries(data, heur)
	rx := BuildRetrieval(sums, heur)
	ixSound, ixHeur := NewIndex(sound), NewIndex(heur)
	for _, s := range sums {
		ixSound.Add(s)
		ixHeur.Add(s)
	}
	scratch := make([]bool, len(sums))
	for qi, q := range sums {
		ids, nSound := rx.Probe(q, scratch, nil)
		if want := ixSound.Candidates(q, make([]bool, len(sums))); nSound != want {
			t.Errorf("query %d: probe reports %d sound candidates, Candidates marks %d at sound settings", qi, nSound, want)
		}
		mark := make([]bool, len(sums))
		ixHeur.Candidates(q, mark)
		for _, id := range ids {
			if !mark[id] {
				t.Errorf("query %d: probe retrieved strand %d, which the scan-mode heuristic rule rejects", qi, id)
			}
		}
	}
}

// TestProbeDelta pins the delta-overlay contract: a table built over a
// prefix of the corpus, probed and then extended with ProbeDelta over
// the full summary slice, keeps the probe's own result and appends
// exactly the injectability-live strands written since the build (minus
// zero-count tombstone remnants), sorted and duplicate-free.
func TestProbeDelta(t *testing.T) {
	cfg := Config{}.Normalized()
	data := []byte("probe-delta-corpus-material-0123456789abcdefghijklmnop")
	sums := synthSummaries(data, cfg)
	if len(sums) < 8 {
		t.Fatalf("synth corpus too small: %d", len(sums))
	}
	built := len(sums) - 3 // last 3 strands arrive after the build
	rx := BuildRetrieval(sums[:built], cfg)
	counts := make([]int, len(sums))
	for i := range counts {
		counts[i] = 1
	}
	counts[built+1] = 0 // a tombstoned delta strand

	for self := range sums {
		q := sums[self]
		scratch := make([]bool, rx.Len())
		probed, _ := rx.Probe(q, scratch, nil)
		ids, deltaSound := rx.ProbeDelta(q, sums, counts, append([]int32(nil), probed...))

		// The table answers for [0,built) and the overlay covers
		// [built,len) minus zero counts.
		want := append([]int32(nil), probed...)
		for id := built; id < len(sums); id++ {
			if counts[id] != 0 && (q.Injects(sums[id]) || sums[id].Injects(q)) {
				want = append(want, int32(id))
			}
		}
		for i := range ids {
			if i > 0 && ids[i-1] >= ids[i] {
				t.Fatalf("query %d: ids not sorted/unique at %d: %v", self, i, ids)
			}
		}
		if !reflect.DeepEqual(ids, want) {
			t.Fatalf("query %d: overlaid candidates = %v, want %v", self, ids, want)
		}
		if deltaSound != len(ids)-len(probed) {
			t.Fatalf("query %d: %d delta sound candidates reported, %d appended", self, deltaSound, len(ids)-len(probed))
		}
	}

	if rx.Stale(len(sums), 3) {
		t.Fatal("delta of 3 with maxDelta 3 reported stale")
	}
	if !rx.Stale(len(sums), 2) {
		t.Fatal("delta of 3 with maxDelta 2 not reported stale")
	}
	if rx.Stale(len(sums), -1) {
		t.Fatal("negative maxDelta must never report stale")
	}
}
