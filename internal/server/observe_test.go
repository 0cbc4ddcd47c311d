package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: status %d: %s", url, resp.StatusCode, b)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestSlowQueryCaptureWithoutTrace is the tentpole acceptance test: a
// query slower than the threshold must show up in GET /debug/slow with
// its full span tree and stage breakdown even though the client never
// asked for ?trace=1.
func TestSlowQueryCaptureWithoutTrace(t *testing.T) {
	cfg := quietConfig()
	cfg.SlowQueryThreshold = 5 * time.Millisecond
	_, ts := newTestServer(t, testDB(t), cfg, func(ctx context.Context, p *core.QueryPlan) (*core.Report, error) {
		// Simulate an engine with one instrumented stage, like QueryCtx.
		_, sp := telemetry.StartSpan(ctx, "vcp")
		sp.SetAttr("pairs", 42)
		sp.SetAttr("verifier_calls", 7)
		time.Sleep(20 * time.Millisecond)
		sp.End()
		return &core.Report{QueryName: p.QueryName}, nil
	})

	// Plain query: no trace parameter anywhere.
	resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	rid := resp.Header.Get("X-Request-ID")
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}

	var slow SlowResponse
	getJSON(t, ts.URL+"/debug/slow", &slow)
	if slow.ThresholdMS != 5 {
		t.Fatalf("threshold_ms = %g, want 5", slow.ThresholdMS)
	}
	if slow.Total != 1 || len(slow.Records) != 1 {
		t.Fatalf("slow log: total=%d records=%d, want 1 each", slow.Total, len(slow.Records))
	}
	rec := slow.Records[0]
	if rec.ID != rid {
		t.Errorf("record id %q does not match X-Request-ID %q", rec.ID, rid)
	}
	if rec.Kind != "query" || rec.Outcome != "completed" || !rec.Slow {
		t.Errorf("record classification wrong: %+v", rec)
	}
	if rec.DurationMS < 20 {
		t.Errorf("duration %gms, want >= 20", rec.DurationMS)
	}
	if rec.Trace == nil || rec.Trace.Name != "query" {
		t.Fatalf("slow record lost its span tree: %+v", rec.Trace)
	}
	if rec.Trace.Find("vcp") == nil {
		t.Fatalf("span tree missing vcp stage: %+v", rec.Trace)
	}
	if rec.StageMS["vcp"] < 20 {
		t.Errorf("stage_ms[vcp] = %g, want >= 20", rec.StageMS["vcp"])
	}
	if rec.Pairs != 42 || rec.VerifierCalls != 7 {
		t.Errorf("work counters not adopted from span attrs: %+v", rec)
	}

	// The stats view agrees.
	var st StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.StartTime.IsZero() {
		t.Error("stats start_time is zero")
	}
	if st.Recorder.Records != 1 || st.Recorder.Slow != 1 || st.Recorder.ThresholdMS != 5 {
		t.Errorf("stats recorder block: %+v", st.Recorder)
	}
	if st.LatencyQuantilesMS["p50"] < 20 {
		t.Errorf("latency_quantiles_ms = %v, want p50 >= 20", st.LatencyQuantilesMS)
	}
}

// TestRecorderAlwaysOn runs a real (fast) engine query at the default
// threshold and checks it leaves a trace-stripped record in
// GET /debug/queries, with the engine path pinned from the vcp span.
func TestRecorderAlwaysOn(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	if resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	var recent struct {
		Total   uint64                   `json:"total"`
		Records []*telemetry.QueryRecord `json:"records"`
	}
	getJSON(t, ts.URL+"/debug/queries", &recent)
	if recent.Total != 1 || len(recent.Records) != 1 {
		t.Fatalf("recent: total=%d records=%d, want 1 each", recent.Total, len(recent.Records))
	}
	rec := recent.Records[0]
	if rec.Slow || rec.Trace != nil {
		t.Errorf("fast record kept slow state or trace: %+v", rec)
	}
	if rec.StageMS["vcp"] <= 0 || rec.StageMS["decompose"] <= 0 {
		t.Errorf("stage breakdown missing: %v", rec.StageMS)
	}
	var slow SlowResponse
	getJSON(t, ts.URL+"/debug/slow", &slow)
	if len(slow.Records) != 0 {
		t.Errorf("fast query landed in the slow log: %+v", slow.Records)
	}
}

// TestPartialSlowFailureCapture checks the partial endpoint records slow
// failures too: the flight recorder is evidence for every query that
// reached the engine, not just the successful ones.
func TestPartialSlowFailureCapture(t *testing.T) {
	cfg := quietConfig()
	cfg.SlowQueryThreshold = 5 * time.Millisecond
	s := New(testDB(t), cfg)
	s.partialFn = func(ctx context.Context, p *core.QueryPlan) (*core.QueryPartial, error) {
		time.Sleep(20 * time.Millisecond)
		return nil, fmt.Errorf("verifier backend lost")
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)

	body := strings.NewReader(`{"asm": ` + fmt.Sprintf("%q", gccStyle) + `}`)
	resp, err := http.Post(ts.URL+"/v1/query/partial", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422", resp.StatusCode)
	}

	var slow SlowResponse
	getJSON(t, ts.URL+"/debug/slow", &slow)
	if len(slow.Records) != 1 {
		t.Fatalf("slow log holds %d records, want 1", len(slow.Records))
	}
	rec := slow.Records[0]
	if rec.Kind != "partial" || rec.Outcome != "failure" || rec.Err == "" {
		t.Errorf("record = %+v, want slow partial failure with error text", rec)
	}
	if rec.Trace == nil {
		t.Error("slow failure lost its span tree")
	}
}

// TestMetricsExpositionLint strict-parses the /metrics page (the same
// parser CI and the gateway federation use) and checks the new
// observability families are present and well-formed.
func TestMetricsExpositionLint(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	if resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("/metrics fails strict parse: %v", err)
	}
	byName := map[string]*telemetry.ParsedFamily{}
	for _, f := range fams {
		byName[f.Name] = f
	}

	bi, ok := byName["esh_build_info"]
	if !ok || len(bi.Samples) != 1 {
		t.Fatalf("esh_build_info missing: %+v", bi)
	}
	if v, _ := bi.Samples[0].Label("go_version"); v != runtime.Version() {
		t.Errorf("build_info go_version = %q, want %q", v, runtime.Version())
	}
	for _, retired := range []string{"kernel", "prefilter"} {
		if _, ok := bi.Samples[0].Label(retired); ok {
			t.Errorf("build_info still carries a %s label", retired)
		}
	}
	if bi.Samples[0].Value != 1 {
		t.Errorf("build_info value = %g, want 1", bi.Samples[0].Value)
	}

	qf, ok := byName["esh_http_query_quantile_seconds"]
	if !ok || len(qf.Samples) != 3 {
		t.Fatalf("quantile gauges missing: %+v", qf)
	}
	seen := map[string]bool{}
	for _, smp := range qf.Samples {
		q, _ := smp.Label("quantile")
		seen[q] = true
		if !(smp.Value > 0) { // one query observed: no NaN, positive seconds
			t.Errorf("quantile %s = %g, want > 0", q, smp.Value)
		}
	}
	if !seen["0.5"] || !seen["0.95"] || !seen["0.99"] {
		t.Errorf("quantile labels = %v", seen)
	}

	if st, ok := byName["esh_process_start_time_seconds"]; !ok || st.Samples[0].Value <= 0 {
		t.Errorf("esh_process_start_time_seconds missing or non-positive: %+v", st)
	}
	if _, ok := byName["esh_http_slow_queries_total"]; !ok {
		t.Error("esh_http_slow_queries_total missing")
	}
	if fr, ok := byName["esh_flight_recorder_records"]; !ok || fr.Samples[0].Value != 1 {
		t.Errorf("esh_flight_recorder_records: %+v", fr)
	}
	// Process health: the Go runtime series, and the memo's entry count
	// beside its bytes so bytes per entry can be read off one scrape. Only
	// an in-flight query's strands hold memos, so with the query answered
	// both read zero.
	if gr, ok := byName["esh_go_goroutines"]; !ok || !(gr.Samples[0].Value >= 1) {
		t.Errorf("esh_go_goroutines: %+v", gr)
	}
	if hp, ok := byName["esh_go_heap_inuse_bytes"]; !ok || !(hp.Samples[0].Value > 0) {
		t.Errorf("esh_go_heap_inuse_bytes: %+v", hp)
	}
	me, mb := byName["esh_engine_memo_entries"], byName["esh_vcp_memo_bytes"]
	if me == nil || mb == nil || me.Type != "gauge" || mb.Type != "gauge" || me.Samples[0].Value != 0 || mb.Samples[0].Value != 0 {
		t.Errorf("memo entries %+v against bytes %+v: want two gauges reading 0 between queries", me, mb)
	}
}
