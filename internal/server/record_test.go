package server

import (
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/telemetry"
)

// TestRecordCarriesEngineWork holds the flight record to the engine's own
// account: a fast, cold query's GET /debug/queries record keeps its span
// tree — the four stages — and its vcp stage's work counts equal what the
// query added to the DB counters. The record is the span tree, so nothing
// between the engine's per-row flush and the record may drop or re-count
// a number. One held-out query on a slice of C1, at Workers 1 and 2.
func TestRecordCarriesEngineWork(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	cfg := experiments.Config{Scale: experiments.Small}
	all, err := cfg.BuildCorpus()
	if err != nil {
		t.Fatal(err)
	}
	held, err := cfg.HeldOutQueries()
	if err != nil {
		t.Fatal(err)
	}
	counters := []struct {
		attr string
		read func(core.DBStats) uint64
	}{
		{"cache_misses", func(s core.DBStats) uint64 { return s.VCPCacheMisses }},
		{"cache_hits", func(s core.DBStats) uint64 { return s.VCPCacheHits }},
		{"correspondences", func(s core.DBStats) uint64 { return s.VerifierCorrespondences }},
		{"pairs_pruned", func(s core.DBStats) uint64 { return s.VCPPairsPruned }},
		{"pairs_forward_dead", func(s core.DBStats) uint64 { return s.ForwardDeadPairs }},
	}
	for _, workers := range []int{1, 2} {
		db := core.NewDB(core.Options{Workers: workers})
		for _, p := range all[:len(all)/4] {
			if err := db.AddTarget(p); err != nil {
				t.Fatal(err)
			}
		}
		_, ts := newTestServer(t, db, quietConfig(), nil)

		before := db.Stats()
		resp := postQuery(t, ts.URL, QueryRequest{Asm: held[0].String()})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("workers=%d: query status %d", workers, resp.StatusCode)
		}
		after := db.Stats()

		var recent struct {
			Records []*telemetry.QueryRecord `json:"records"`
		}
		getJSON(t, ts.URL+"/debug/queries", &recent)
		if len(recent.Records) != 1 || recent.Records[0].Slow {
			t.Fatalf("workers=%d: want one fast record, got %+v", workers, recent.Records)
		}
		tree := recent.Records[0].Trace
		if tree == nil {
			t.Fatalf("workers=%d: the record keeps no span tree", workers)
		}
		var stages []string
		for _, c := range tree.Children {
			stages = append(stages, c.Name)
		}
		if got := strings.Join(stages, " "); got != "decompose prepare vcp score" {
			t.Fatalf("workers=%d: record stages %q, want decompose prepare vcp score", workers, got)
		}
		attrs := tree.Find("vcp").Attrs
		if attrs["cache_misses"] == 0 {
			t.Fatalf("workers=%d: the query was not cold: %v", workers, attrs)
		}
		for _, c := range counters {
			if got, want := attrs[c.attr], float64(c.read(after)-c.read(before)); got != want {
				t.Errorf("workers=%d: record's vcp %s = %v, DB counter moved %v", workers, c.attr, got, want)
			}
		}
		t.Logf("workers=%d: vcp %v", workers, attrs)
	}
}
