package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp := getURL(t, url)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestGatewayFederation scrapes a real two-shard fleet and checks the
// federated /metrics page: strict-parser-clean, with each shard's
// series re-exported under a shard label next to the gateway's own.
func TestGatewayFederation(t *testing.T) {
	f := startFleet(t, 2, nil)
	// Traffic first, so quantile gauges and shard series are non-trivial.
	decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	f.gw.ScrapeFleet(context.Background())

	resp := getURL(t, f.gwSrv.URL+"/metrics")
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("federated page fails strict parse: %v", err)
	}
	byName := map[string]*telemetry.ParsedFamily{}
	for _, fam := range fams {
		if _, dup := byName[fam.Name]; dup {
			t.Fatalf("family %s appears twice", fam.Name)
		}
		byName[fam.Name] = fam
	}

	// A shard-only family arrives with one sample per shard.
	it, ok := byName["esh_index_targets"]
	if !ok {
		t.Fatal("federated page missing esh_index_targets")
	}
	seen := map[string]bool{}
	for _, s := range it.Samples {
		sh, _ := s.Label("shard")
		seen[sh] = true
	}
	if !seen["0"] || !seen["1"] {
		t.Fatalf("esh_index_targets shard labels = %v, want 0 and 1", seen)
	}

	// A family exported by gateway AND shards merges into one block:
	// the gateway's unlabeled sample plus one labeled sample per shard.
	bi, ok := byName["esh_build_info"]
	if !ok || len(bi.Samples) != 3 {
		t.Fatalf("esh_build_info merge: %+v", bi)
	}

	// So do the Go runtime series both daemons register: the process
	// health of the gateway and of every shard on one page.
	for _, name := range []string{"esh_go_heap_inuse_bytes", "esh_go_heap_released_bytes",
		"esh_go_gc_cycles_total", "esh_go_gc_pause_cpu_seconds_total", "esh_go_goroutines"} {
		if f, ok := byName[name]; !ok || len(f.Samples) != 3 {
			t.Fatalf("%s merge: %+v, want the gateway's sample plus one per shard", name, f)
		}
	}

	// The gateway's own quantile gauges are present and positive.
	qf, ok := byName["esh_gw_query_quantile_seconds"]
	if !ok || len(qf.Samples) != 3 {
		t.Fatalf("esh_gw_query_quantile_seconds: %+v", qf)
	}
	for _, s := range qf.Samples {
		if _, hasShard := s.Label("shard"); hasShard {
			t.Errorf("gateway-own series gained a shard label: %+v", s)
		}
		if !(s.Value > 0) {
			t.Errorf("quantile gauge %v not positive after traffic", s)
		}
	}
	if sq, ok := byName["esh_gw_shard_quantile_seconds"]; !ok || len(sq.Samples) != 6 {
		t.Fatalf("esh_gw_shard_quantile_seconds: %+v", sq)
	}

	// Scrape outcome counters: one ok scrape per shard.
	sc, ok := byName["esh_gw_scrapes_total"]
	if !ok {
		t.Fatal("esh_gw_scrapes_total missing")
	}
	for _, s := range sc.Samples {
		res, _ := s.Label("result")
		if want := float64(0); res == "ok" {
			want = 1
			if s.Value != want {
				t.Errorf("scrape counter %v, want %g", s, want)
			}
		}
	}
}

// TestGatewayFederationScrapeFailure points the scraper at hand-built
// /metrics endpoints — one healthy, one broken — and checks the broken
// shard's series are dropped (not staled) while the page stays valid
// and /v1/fleet surfaces the scrape error.
func TestGatewayFederationScrapeFailure(t *testing.T) {
	const shardPage = `# HELP esh_http_uptime_seconds Seconds since the server started.
# TYPE esh_http_uptime_seconds gauge
esh_http_uptime_seconds 42
# TYPE esh_index_targets gauge
esh_index_targets 2
`
	okShard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/metrics" {
			http.NotFound(w, r)
			return
		}
		fmt.Fprint(w, shardPage)
	}))
	t.Cleanup(okShard.Close)
	brokenShard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, "on fire", http.StatusInternalServerError)
	}))
	t.Cleanup(brokenShard.Close)

	// Borrow a real manifest of the right shape; the fake endpoints
	// replace the real replicas for scraping purposes.
	f := startFleet(t, 2, nil)
	cfg := Config{
		Manifest: f.man,
		Shards:   [][]string{{okShard.URL}, {brokenShard.URL}},
		Logger:   quietLogger(),
	}
	g, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.ScrapeFleet(context.Background())
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)

	resp := getURL(t, ts.URL+"/metrics")
	fams, err := telemetry.ParseExposition(resp.Body)
	if err != nil {
		t.Fatalf("federated page fails strict parse with a broken shard: %v", err)
	}
	var page strings.Builder
	for _, fam := range fams {
		// The gateway's own esh_gw_* series carry shard labels by design;
		// only scraped families must not show the broken shard.
		if !strings.HasPrefix(fam.Name, "esh_gw_") {
			for _, s := range fam.Samples {
				if sh, _ := s.Label("shard"); sh == "1" {
					t.Errorf("broken shard leaked series %s into the page", s.Name)
				}
			}
		}
		page.WriteString(fam.Name + "\n")
	}
	if !strings.Contains(page.String(), "esh_index_targets") {
		t.Error("healthy shard's series missing from the federated page")
	}

	var fleet shard.FleetHealth
	getJSON(t, ts.URL+"/v1/fleet", &fleet)
	if fleet.Generation != f.man.Generation {
		t.Errorf("fleet generation %q, want %q", fleet.Generation, f.man.Generation)
	}
	if len(fleet.Shards) != 2 {
		t.Fatalf("fleet has %d shards", len(fleet.Shards))
	}
	s0, s1 := fleet.Shards[0], fleet.Shards[1]
	if s0.LastScrape == nil || s0.LastScrape.Err != "" || s0.LastScrape.Series == 0 {
		t.Errorf("healthy shard scrape status: %+v", s0.LastScrape)
	}
	if s0.UptimeSeconds != 42 {
		t.Errorf("scraped uptime = %g, want 42", s0.UptimeSeconds)
	}
	if s1.LastScrape == nil || s1.LastScrape.Err == "" {
		t.Errorf("broken shard scrape status carries no error: %+v", s1.LastScrape)
	}
	if s1.UptimeSeconds != 0 {
		t.Errorf("broken shard reports uptime %g", s1.UptimeSeconds)
	}
}

// TestGatewayGetRefusesOversizedBody: a body over get's limit is an error
// naming the URL and the limit, never the page cut short — a cut
// exposition can parse clean with a wrong value. A scrape of such a page
// counts as a failed scrape and drops the shard's series.
func TestGatewayGetRefusesOversizedBody(t *testing.T) {
	// Without its last byte the page still parses, with esh_x = 1234.
	const head, tail = "# TYPE esh_x gauge\n", `esh_x{a="b"} 12345`
	page := func(size int) string {
		var b strings.Builder
		b.WriteString(head)
		for b.Len()+len(tail) < size {
			line := min(1<<10, size-len(tail)-b.Len())
			b.WriteString("#" + strings.Repeat(" ", line-2) + "\n")
		}
		b.WriteString(tail)
		return b.String()
	}
	var body string
	replica := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, body)
	}))
	t.Cleanup(replica.Close)
	f := startFleet(t, 2, nil)
	g, err := New(Config{Manifest: f.man, Shards: [][]string{{f.shardSrv[0].URL}, {replica.URL}}, Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}

	const limit = 100
	for size, ok := range map[int]bool{limit: true, limit + 1: false} {
		body = page(size)
		if len(body) != size {
			t.Fatalf("built a %d-byte page, want %d", len(body), size)
		}
		got, err := g.get(context.Background(), replica.URL+"/metrics", limit)
		if ok && (err != nil || string(got) != body) {
			t.Errorf("%d-byte page under a %d-byte limit: %v", size, limit, err)
		}
		if !ok && (err == nil || !strings.Contains(err.Error(), replica.URL+"/metrics") || !strings.Contains(err.Error(), fmt.Sprint(limit))) {
			t.Errorf("%d-byte page under a %d-byte limit: error %v does not refuse it by URL and limit", size, limit, err)
		}
	}

	body = page(maxMetricsBytes + 1)
	if _, err := telemetry.ParseExposition(strings.NewReader(body[:maxMetricsBytes])); err != nil {
		t.Fatalf("the cut page should parse clean, or the test shows nothing: %v", err)
	}
	g.ScrapeFleet(context.Background())
	if n := g.scrapeErr[1].Value(); n != 1 {
		t.Errorf("esh_gw_scrapes_total{shard=\"1\",result=\"error\"} = %d, want 1", n)
	}
	if res := g.scrapes[1].Load(); res == nil || res.fams != nil || !strings.Contains(res.err, "exceeds") {
		t.Errorf("oversized scrape kept: %+v", res)
	}
	ts := httptest.NewServer(g.Handler())
	t.Cleanup(ts.Close)
	fams, err := telemetry.ParseExposition(getURL(t, ts.URL+"/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range fams {
		if fam.Name == "esh_x" {
			t.Error("the oversized page's series reached the federated page")
		}
	}
}

// TestGatewayRequestLogStatus: eshgw's request line comes from the one
// middleware both daemons share, so it says what was answered. (Served
// without a listener: the line is written after the handler returns, which
// over HTTP is after the client has its reply.)
func TestGatewayRequestLogStatus(t *testing.T) {
	var log bytes.Buffer
	h := startFleet(t, 1, func(c *Config) { c.Logger = slog.New(slog.NewJSONHandler(&log, nil)) }).gw.Handler()
	for _, tc := range []struct {
		path   string
		status int
	}{{"/healthz", http.StatusOK}, {"/v1/nowhere", http.StatusNotFound}} {
		log.Reset()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", tc.path, nil))
		var line struct {
			Msg, Path string
			Status    int
			RequestID string `json:"request_id"`
		}
		if err := json.Unmarshal(log.Bytes(), &line); err != nil {
			t.Fatalf("GET %s logged %q: %v", tc.path, log.String(), err)
		}
		if line.Msg != "request" || line.Path != tc.path || line.Status != tc.status || line.RequestID == "" {
			t.Errorf("GET %s answered %d, logged %q", tc.path, tc.status, log.String())
		}
	}
}

// TestGatewaySlowQueryCapture is the gateway half of the tentpole
// acceptance test: an untraced query past the threshold lands in
// GET /debug/slow with the full fan-out span tree and per-shard
// outcomes.
func TestGatewaySlowQueryCapture(t *testing.T) {
	f := startFleet(t, 2, func(c *Config) {
		c.SlowQueryThreshold = time.Nanosecond // everything is slow
	})
	resp := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if resp.Trace != nil {
		t.Fatal("untraced response carries a trace")
	}

	var slow server.SlowResponse
	getJSON(t, f.gwSrv.URL+"/debug/slow", &slow)
	if len(slow.Records) != 1 {
		t.Fatalf("slow log holds %d records, want 1", len(slow.Records))
	}
	rec := slow.Records[0]
	if rec.Kind != "gateway" || rec.Outcome != "completed" || !rec.Slow {
		t.Errorf("record classification: %+v", rec)
	}
	if rec.Generation != f.man.Generation {
		t.Errorf("record generation %q, want %q", rec.Generation, f.man.Generation)
	}
	if rec.Trace == nil || rec.Trace.Find("shard_0") == nil || rec.Trace.Find("shard_1") == nil {
		t.Fatalf("fan-out span tree incomplete: %+v", rec.Trace)
	}
	if len(rec.Shards) != 2 {
		t.Fatalf("per-shard outcomes: %+v", rec.Shards)
	}
	for _, so := range rec.Shards {
		if so.Err != "" || so.Replica == "" || so.Millis <= 0 || so.Attempts < 1 {
			t.Errorf("shard outcome %+v", so)
		}
	}
	if rec.Trace.Find("shard_0").DurationMS <= 0 || rec.Trace.Find("shard_1").DurationMS <= 0 {
		t.Errorf("stage breakdown missing shard legs: %+v", rec.Trace)
	}

	// Stats and fleet views reflect the traffic.
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Recorder.Records != 1 || st.Recorder.Slow != 1 {
		t.Errorf("stats recorder block: %+v", st.Recorder)
	}
	if st.StartTime.IsZero() {
		t.Error("stats start_time is zero")
	}
	if st.LatencyQuantilesMS["p50"] <= 0 {
		t.Errorf("latency quantiles: %v", st.LatencyQuantilesMS)
	}
	var fleet shard.FleetHealth
	getJSON(t, f.gwSrv.URL+"/v1/fleet", &fleet)
	if !fleet.Ready || fleet.ReadyReplicas != 2 {
		t.Errorf("fleet readiness: %+v", fleet)
	}
	total := 0
	for _, sh := range fleet.Shards {
		total += sh.Targets
		if sh.P50MS <= 0 {
			t.Errorf("shard %d p50 = %g after traffic", sh.ID, sh.P50MS)
		}
	}
	if total != f.man.NumTargets {
		t.Errorf("fleet targets sum %d, manifest says %d", total, f.man.NumTargets)
	}
}
