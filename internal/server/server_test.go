package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/vcp"
)

const gccStyle = `proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	mov r8, rax
	and r8, 0xff
	add rax, r8
	ret
endp`

const iccStyle = `proc checksum_icc
	xor r9d, r9d
	mov r10, rdi
	mov r11, rsi
	imul r11, 3
	imul r11, 4
	add r11, 0x20
	imul r10, r11
	mov rax, r10
	shr rax, 7
	xor rax, r10
	mov rbx, rax
	and rbx, 0xff
	add rax, rbx
	ret
endp`

const unrelated = `proc strlen_like
	xor eax, eax
	mov rdx, rdi
top:
	movzx ecx, byte [rdx]
	test rcx, rcx
	je done
	add rdx, 1
	add rax, 1
	cmp rax, 0x1000
	jb top
done:
	ret
endp`

func testDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{iccStyle, unrelated} {
		p, err := asm.ParseProc(src)
		if err != nil {
			t.Fatal(err)
		}
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func quietConfig() Config {
	return Config{Logger: slog.New(slog.NewTextHandler(io.Discard, nil))}
}

// newTestServer starts an httptest server; queryFn (optional) replaces
// the engine query before the listener accepts traffic.
func newTestServer(t *testing.T, db *core.DB, cfg Config, queryFn func(context.Context, *core.QueryPlan) (*core.Report, error)) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Logger == nil {
		cfg.Logger = quietConfig().Logger
	}
	s := New(db, cfg)
	if queryFn != nil {
		s.queryFn = queryFn
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postQuery(t *testing.T, url string, req QueryRequest) *http.Response {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

// TestQueryEndpoint checks that HTTP results match an in-process Query
// exactly (same ranking, same scores bit for bit).
func TestQueryEndpoint(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, quietConfig(), nil)

	resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle, Method: "esh", Top: 10})
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var got QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}

	p, err := asm.ParseProc(gccStyle)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(p)
	if err != nil {
		t.Fatal(err)
	}
	ranked := want.Rank(stats.Esh)
	if len(got.Results) != len(ranked) {
		t.Fatalf("results %d, want %d", len(got.Results), len(ranked))
	}
	for i, r := range got.Results {
		w := ranked[i]
		if r.Target != w.Target.Name || r.GES != w.GES || r.SLOG != w.SLOG {
			t.Fatalf("rank %d: got (%s %v %v), want (%s %v %v)",
				i, r.Target, r.GES, r.SLOG, w.Target.Name, w.GES, w.SLOG)
		}
	}
	if got.Results[0].Target != "checksum_icc" {
		t.Fatalf("top result %s, want checksum_icc", got.Results[0].Target)
	}
}

func TestQueryBadInput(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	for _, tc := range []struct {
		req  QueryRequest
		want int
	}{
		{QueryRequest{Asm: "this is not assembler"}, http.StatusBadRequest},
		{QueryRequest{Asm: ""}, http.StatusBadRequest},
		{QueryRequest{Asm: gccStyle, Method: "bogus"}, http.StatusBadRequest},
	} {
		resp := postQuery(t, ts.URL, tc.req)
		if resp.StatusCode != tc.want {
			t.Errorf("%+v: status %d, want %d", tc.req, resp.StatusCode, tc.want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	b, _ := io.ReadAll(resp.Body)
	if strings.TrimSpace(string(b)) != "ok" {
		t.Fatalf("body %q", b)
	}
}

func TestTargetsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	resp, err := http.Get(ts.URL + "/v1/targets")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var got struct {
		Targets []TargetInfo `json:"targets"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Targets) != 2 {
		t.Fatalf("targets %d, want 2", len(got.Targets))
	}
	if got.Targets[0].Name != "checksum_icc" {
		t.Fatalf("first target %s", got.Targets[0].Name)
	}
}

// TestQueryTimeout injects a query that outlives the configured timeout
// and expects 504.
func TestQueryTimeout(t *testing.T) {
	cfg := quietConfig()
	cfg.QueryTimeout = 20 * time.Millisecond
	release := make(chan struct{})
	defer close(release)
	_, ts := newTestServer(t, testDB(t), cfg, func(_ context.Context, p *core.QueryPlan) (*core.Report, error) {
		<-release
		return &core.Report{QueryName: p.QueryName}, nil
	})

	resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504", resp.StatusCode)
	}
}

// TestInFlightLimit saturates MaxInFlight with blocked queries and
// expects the next request to be shed with 429.
func TestInFlightLimit(t *testing.T) {
	cfg := quietConfig()
	cfg.MaxInFlight = 2
	cfg.QueryTimeout = 5 * time.Second
	release := make(chan struct{})
	started := make(chan struct{}, 8)
	_, ts := newTestServer(t, testDB(t), cfg, func(_ context.Context, p *core.QueryPlan) (*core.Report, error) {
		started <- struct{}{}
		<-release
		return &core.Report{QueryName: p.QueryName}, nil
	})

	var wg sync.WaitGroup
	for i := 0; i < cfg.MaxInFlight; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
			if resp.StatusCode != http.StatusOK {
				t.Errorf("blocked query status %d", resp.StatusCode)
			}
		}()
	}
	for i := 0; i < cfg.MaxInFlight; i++ {
		select {
		case <-started:
		case <-time.After(5 * time.Second):
			t.Fatal("queries did not start")
		}
	}

	resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}

	close(release)
	wg.Wait()

	// Counters surfaced via /v1/stats reflect the traffic.
	statsResp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer statsResp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(statsResp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.Rejected != 1 {
		t.Errorf("rejected = %d, want 1", st.Queries.Rejected)
	}
	if st.Queries.Completed != uint64(cfg.MaxInFlight) {
		t.Errorf("completed = %d, want %d", st.Queries.Completed, cfg.MaxInFlight)
	}
	if st.Index.Targets != 2 {
		t.Errorf("index targets = %d, want 2", st.Index.Targets)
	}
}

// TestMetricsEndpoint scrapes /metrics after one query and checks that
// the exposition is well-formed and covers the server, engine, and
// process registries.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	if resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle}); resp.StatusCode != http.StatusOK {
		t.Fatalf("query status %d", resp.StatusCode)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type %q", ct)
	}
	b, _ := io.ReadAll(resp.Body)
	body := string(b)
	for _, want := range []string{
		"# TYPE esh_http_queries_total counter",
		`esh_http_queries_total{result="completed"} 1`,
		"# TYPE esh_http_query_seconds histogram",
		"esh_http_query_seconds_count 1",
		"esh_http_inflight_queries 0",
		"esh_engine_queries_total 1",
		`esh_query_stage_seconds_bucket{stage="vcp",le="+Inf"} 1`,
		"# TYPE esh_vcp_cache_hit_ratio gauge",
		"esh_vcp_cache_pairs ",
		"esh_index_targets 2",
		"esh_vcp_cache_misses_total",
		"# TYPE esh_vcp_memo_hits_total counter",
		"# TYPE esh_vcp_memo_misses_total counter",
		"# TYPE esh_vcp_memo_bytes gauge",
		"# TYPE esh_vcp_memo_budget_bytes gauge",
		"# TYPE esh_plan_memo_hits_total counter",
		"esh_plan_memo_misses_total 1",
		"# TYPE esh_plan_memo_evictions_total counter",
		"# TYPE esh_plan_memo_bytes gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every non-comment line is "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed sample line %q", line)
		}
	}
}

// TestQueryTrace opts into ?trace=1 and checks the span tree shape: a
// query root whose four stage children account for ≈ all of its time,
// with VCP work counts attached.
func TestQueryTrace(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	body, _ := json.Marshal(QueryRequest{Asm: gccStyle})
	resp, err := http.Post(ts.URL+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	var got QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if got.Trace == nil {
		t.Fatal("no trace in response")
	}
	if got.Trace.Name != "query" {
		t.Fatalf("root span %q", got.Trace.Name)
	}
	wantStages := []string{"decompose", "prepare", "vcp", "score"}
	if len(got.Trace.Children) != len(wantStages) {
		t.Fatalf("stages %d, want %d: %+v", len(got.Trace.Children), len(wantStages), got.Trace.Children)
	}
	var stageSum float64
	for i, c := range got.Trace.Children {
		if c.Name != wantStages[i] {
			t.Errorf("stage %d is %q, want %q", i, c.Name, wantStages[i])
		}
		if c.DurationMS < 0 {
			t.Errorf("stage %s has negative duration", c.Name)
		}
		stageSum += c.DurationMS
	}
	// Stages run back to back inside the root span, so their durations
	// must sum to at most the root's and, when the query is long enough
	// to measure, to most of it.
	if stageSum > got.Trace.DurationMS+0.1 {
		t.Errorf("stage sum %.3fms exceeds root %.3fms", stageSum, got.Trace.DurationMS)
	}
	if got.Trace.DurationMS > 5 && stageSum < 0.5*got.Trace.DurationMS {
		t.Errorf("stage sum %.3fms does not account for root %.3fms", stageSum, got.Trace.DurationMS)
	}
	vcpSpan := got.Trace.Children[2]
	if vcpSpan.Attrs["pairs"] <= 0 {
		t.Errorf("vcp span missing pairs attr: %v", vcpSpan.Attrs)
	}
	if math.IsNaN(vcpSpan.Attrs["cache_misses"]) || vcpSpan.Attrs["cache_misses"] <= 0 {
		t.Errorf("vcp span missing cache_misses attr: %v", vcpSpan.Attrs)
	}

	// Without ?trace=1 the response carries no trace.
	plain := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
	var noTrace QueryResponse
	if err := json.NewDecoder(plain.Body).Decode(&noTrace); err != nil {
		t.Fatal(err)
	}
	if noTrace.Trace != nil {
		t.Error("trace present without opt-in")
	}
}

// TestRequestID checks ID propagation: a client-supplied X-Request-ID is
// echoed, a missing one is generated, and query responses embed it.
func TestRequestID(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "client-supplied-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "client-supplied-42" {
		t.Errorf("echoed ID %q, want client-supplied-42", got)
	}

	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if got := resp2.Header.Get("X-Request-ID"); len(got) != 16 {
		t.Errorf("generated ID %q, want 16 hex chars", got)
	}

	qresp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if qr.RequestID == "" || qr.RequestID != qresp.Header.Get("X-Request-ID") {
		t.Errorf("response request_id %q vs header %q", qr.RequestID, qresp.Header.Get("X-Request-ID"))
	}
}

func TestStatsAfterQueries(t *testing.T) {
	_, ts := newTestServer(t, testDB(t), quietConfig(), nil)
	for i := 0; i < 3; i++ {
		resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d", resp.StatusCode)
		}
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.Queries.Completed != 3 {
		t.Fatalf("completed = %d, want 3", st.Queries.Completed)
	}
	var histTotal uint64
	for _, n := range st.LatencyMS {
		histTotal += n
	}
	if histTotal != 3 {
		t.Fatalf("latency histogram total = %d, want 3", histTotal)
	}
	if st.VCPCache.Pairs == 0 {
		t.Error("vcp cache occupancy not reported")
	}
	// Repeat queries replay the same strand rows, so the cache must
	// report hits and a nonzero hit rate.
	if st.VCPCache.Hits == 0 || st.VCPCache.HitRate <= 0 || st.VCPCache.HitRate > 1 {
		t.Errorf("cache traffic hits=%d rate=%v", st.VCPCache.Hits, st.VCPCache.HitRate)
	}
	if st.Engine.Queries != 3 {
		t.Errorf("engine queries = %d, want 3", st.Engine.Queries)
	}
	for _, stage := range []string{"decompose", "prepare", "vcp", "score"} {
		if _, ok := st.Engine.StageSeconds[stage]; !ok {
			t.Errorf("stage_seconds missing %q", stage)
		}
	}
	if st.Engine.VerifierCalls == 0 {
		t.Error("verifier calls not reported")
	}
	// Only queries in flight hold memos: with all three answered, the
	// traffic counters have moved and nothing is left charged.
	if m := st.Engine.Memo; m.Hits+m.Misses == 0 ||
		m.Bytes != 0 || m.Entries != 0 || m.BudgetBytes != 128<<20 {
		t.Errorf("memo block %+v", m)
	}
}
