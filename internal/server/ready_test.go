package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"

	"repro/internal/index"
)

func get(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestReadyzDrain covers the liveness/readiness split: /healthz stays
// 200 across a drain, /readyz flips to 503 the moment SetReady(false)
// runs (before the listener would close) and recovers on SetReady(true).
func TestReadyzDrain(t *testing.T) {
	s, ts := newTestServer(t, testDB(t), quietConfig(), nil)

	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("fresh server /readyz = %d", resp.StatusCode)
	}
	s.SetReady(false)
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining server /readyz = %d, want 503", resp.StatusCode)
	}
	if resp := get(t, ts.URL+"/healthz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("draining server /healthz = %d, want 200 (drain is not death)", resp.StatusCode)
	}
	if s.Ready() {
		t.Fatal("Ready() true while draining")
	}
	s.SetReady(true)
	if resp := get(t, ts.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("recovered server /readyz = %d", resp.StatusCode)
	}
}

// TestPartialEndpoint checks the scatter leg: /v1/query/partial returns
// the shard-exact reductions with coherent dimensions.
func TestPartialEndpoint(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, quietConfig(), nil)

	body, _ := json.Marshal(QueryRequest{Asm: gccStyle})
	resp, err := http.Post(ts.URL+"/v1/query/partial", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("partial query = %d", resp.StatusCode)
	}
	frame, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if got := resp.Header.Get("Content-Length"); got != strconv.Itoa(len(frame)) {
		t.Fatalf("Content-Length %q, frame is %d bytes", got, len(frame))
	}
	pr, err := DecodePartialResponse(frame)
	if err != nil {
		t.Fatal(err)
	}
	if pr.RequestID == "" || pr.RequestID != resp.Header.Get("X-Request-ID") {
		t.Fatalf("frame request id %q, header %q", pr.RequestID, resp.Header.Get("X-Request-ID"))
	}
	if pr.Trace != nil {
		t.Fatal("untraced request got a trace section")
	}
	p := pr.Partial
	if p.QueryName != "checksum_gcc" {
		t.Fatalf("partial query name %q", p.QueryName)
	}
	if p.ShardCount != 0 {
		t.Fatalf("unsharded corpus reports shard %d/%d", p.ShardID, p.ShardCount)
	}
	if len(p.Targets) != db.NumTargets() {
		t.Fatalf("%d target partials, corpus has %d", len(p.Targets), db.NumTargets())
	}
	if len(p.Rows) != len(p.Weights) {
		t.Fatalf("%d rows for %d query strands", len(p.Rows), len(p.Weights))
	}
	for i, row := range p.Rows {
		if len(row) != db.NumUniqueStrands() {
			t.Fatalf("row %d has %d entries, corpus has %d unique strands", i, len(row), db.NumUniqueStrands())
		}
	}
	for _, tp := range p.Targets {
		if len(tp.MaxVCP) != len(p.Weights) {
			t.Fatalf("target %s has %d max-VCP entries", tp.Name, len(tp.MaxVCP))
		}
	}

	// ?trace=1 carries the span tree in the frame's trace section.
	resp3, err := http.Post(ts.URL+"/v1/query/partial?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	frame, _ = io.ReadAll(resp3.Body)
	if pr, err = DecodePartialResponse(frame); err != nil {
		t.Fatal(err)
	}
	if pr.Trace == nil || pr.Trace.Name != "query_partial" || len(pr.Trace.Children) == 0 {
		t.Fatalf("traced frame carries trace %+v", pr.Trace)
	}

	// Malformed asm is rejected like on /v1/query, and in JSON.
	bad, _ := json.Marshal(QueryRequest{Asm: "not asm"})
	resp2, err := http.Post(ts.URL+"/v1/query/partial", "application/json", bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad asm partial query = %d, want 400", resp2.StatusCode)
	}
	var fail map[string]string
	if err := json.NewDecoder(resp2.Body).Decode(&fail); err != nil || fail["error"] == "" {
		t.Fatalf("error reply is not the JSON error shape: %v %v", fail, err)
	}
}

// TestStatsSnapshotBlock checks that /v1/stats surfaces the snapshot
// identity a gateway verifies the fleet with, and that it follows the
// snapshot a compaction writes.
func TestStatsSnapshotBlock(t *testing.T) {
	_, ts := storeServer(t, testDB(t), true)
	stats := func() StatsResponse {
		resp := get(t, ts.URL+"/v1/stats")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("stats = %d", resp.StatusCode)
		}
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st
	}
	loaded := stats()
	if loaded.Snapshot.Version != index.Version || len(loaded.Snapshot.Checksum) != 64 {
		t.Fatalf("snapshot block %+v", loaded.Snapshot)
	}
	if loaded.Snapshot.ShardCount != 0 {
		t.Fatalf("unsharded corpus reports shard count %d", loaded.Snapshot.ShardCount)
	}
	for _, c := range []struct{ method, path string }{{http.MethodPost, "/v1/targets"}, {http.MethodPost, "/v1/compact"}} {
		if resp, body := doJSON(t, c.method, ts.URL+c.path, WriteRequest{Asm: gccStyle}); resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: status %d: %s", c.method, c.path, resp.StatusCode, body)
		}
	}
	if compacted := stats(); compacted.Snapshot.Checksum == loaded.Snapshot.Checksum || compacted.Writes.Generation != 1 {
		t.Fatalf("after a compaction the stats name snapshot %.12s… at generation %d, before it %.12s…",
			compacted.Snapshot.Checksum, compacted.Writes.Generation, loaded.Snapshot.Checksum)
	}
}
