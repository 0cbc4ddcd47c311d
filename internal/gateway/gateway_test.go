package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"net/http/httptrace"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/telemetry"
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

const memStyle = `proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`

func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

func buildCorpus(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, src := range []string{gccStyle, iccStyle, memStyle} {
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

// fleet is a complete in-process cluster: one httptest eshd per shard,
// the single-node reference server, and the gateway in front.
type fleet struct {
	man      *shard.Manifest
	shardDB  []*core.DB
	shardSrv []*httptest.Server
	single   *httptest.Server
	gw       *Gateway
	gwSrv    *httptest.Server
}

// startFleet splits the corpus n ways and wires real server.Server
// instances behind a gateway. mutate (optional) adjusts the gateway
// config (replica lists, budgets) before New.
func startFleet(t *testing.T, n int, mutate func(*Config)) *fleet {
	t.Helper()
	db := buildCorpus(t)
	ex := db.Export()
	man, shardExs, err := shard.Split(ex, n)
	if err != nil {
		t.Fatal(err)
	}
	f := &fleet{man: man}
	scfg := server.Config{Logger: quietLogger()}
	var urls [][]string
	for s, se := range shardExs {
		sdb, err := core.FromExport(se)
		if err != nil {
			t.Fatalf("rebuild shard %d: %v", s, err)
		}
		ts := httptest.NewServer(server.New(sdb, scfg).Handler())
		t.Cleanup(ts.Close)
		f.shardDB = append(f.shardDB, sdb)
		f.shardSrv = append(f.shardSrv, ts)
		urls = append(urls, []string{ts.URL})
	}
	single, err := core.FromExport(ex)
	if err != nil {
		t.Fatal(err)
	}
	f.single = httptest.NewServer(server.New(single, scfg).Handler())
	t.Cleanup(f.single.Close)

	cfg := Config{
		Manifest:     man,
		Shards:       urls,
		QueryTimeout: 30 * time.Second,
		HedgeAfter:   5 * time.Second, // effectively off unless a test lowers it
		MaxRetries:   1,
		RetryBackoff: 5 * time.Millisecond,
		Logger:       quietLogger(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	f.gw, err = New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.gwSrv = httptest.NewServer(f.gw.Handler())
	t.Cleanup(f.gwSrv.Close)
	return f
}

func postQuery(t *testing.T, url, asmText string) *http.Response {
	t.Helper()
	body, _ := json.Marshal(server.QueryRequest{Asm: asmText, Top: 100})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func decodeResponse(t *testing.T, resp *http.Response) *QueryResponse {
	t.Helper()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		t.Fatalf("query = %d: %s", resp.StatusCode, msg)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	return &qr
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// requireSameResults asserts two wire responses carry identical ranked
// rows — names, ranks, and every score bit for bit.
func requireSameResults(t *testing.T, want, got *QueryResponse, label string) {
	t.Helper()
	if got.NumStrands != want.NumStrands || got.NumBlocks != want.NumBlocks {
		t.Fatalf("%s: query shape %d/%d, want %d/%d", label, got.NumStrands, got.NumBlocks, want.NumStrands, want.NumBlocks)
	}
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	for i := range want.Results {
		a, b := want.Results[i], got.Results[i]
		if !reflect.DeepEqual(a, b) ||
			!sameBits(a.Score, b.Score) || !sameBits(a.GES, b.GES) ||
			!sameBits(a.SLOG, b.SLOG) {
			t.Fatalf("%s: rank %d differs:\nwant %+v\ngot  %+v", label, i, a, b)
		}
	}
}

// TestGatewayDifferential is the over-HTTP exact-merge guard: for N in
// {1,2,4}, the gateway's ranked rows must be identical — names and raw
// GES/SLOG/sigmoid scores to the bit — to a single eshd serving
// the union corpus, and the response must not be flagged partial.
func TestGatewayDifferential(t *testing.T) {
	for _, n := range []int{1, 2, 4} {
		f := startFleet(t, n, nil)
		for _, q := range []string{gccStyle, memStyle} {
			want := decodeResponse(t, postQuery(t, f.single.URL, q))
			got := decodeResponse(t, postQuery(t, f.gwSrv.URL, q))
			if got.Partial || len(got.MissingShards) != 0 {
				t.Fatalf("n=%d: complete fleet flagged partial (missing %v)", n, got.MissingShards)
			}
			requireSameResults(t, want, got, q[:20])
		}
	}
}

// rawResults posts a query and returns the reply's results array as the
// server wrote it.
func rawResults(t *testing.T, url, asmText string) []byte {
	t.Helper()
	resp := postQuery(t, url, asmText)
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d, %v: %s", resp.StatusCode, err, body)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, body); err != nil || compact.String()+"\n" != string(body) {
		t.Fatalf("reply is not compact JSON and a newline (%v):\n%s", err, body)
	}
	var reply struct {
		Results json.RawMessage `json:"results"`
	}
	if err := json.Unmarshal(body, &reply); err != nil {
		t.Fatal(err)
	}
	return reply.Results
}

// TestResultsBytesAgree pins the wire form of an answer: the results array
// is the same bytes — the compact encoding, floats in their shortest exact
// form, so byte equality is bit equality — whether it comes from a single
// node, from a shard asked directly (a one-shard fleet's shard holds the
// whole corpus), from the gateway, or from encoding an in-process QueryCtx
// (what eshbench's oracle does), and whether the daemon planned the text
// for this request or found its plan memoized.
func TestResultsBytesAgree(t *testing.T) {
	oracle := buildCorpus(t)
	for _, n := range []int{1, 2} {
		f := startFleet(t, n, nil)
		for _, q := range []string{gccStyle, memStyle} {
			p, err := asm.ParseProc(q)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := oracle.QueryCtx(context.Background(), p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.Marshal(server.BuildQueryResponse(rep, stats.Esh, 100).Results)
			if err != nil {
				t.Fatal(err)
			}
			urls := map[string]string{"single node": f.single.URL, "gateway": f.gwSrv.URL}
			if n == 1 {
				urls["shard, direct"] = f.shardSrv[0].URL
			}
			for who, url := range urls {
				for _, pass := range []string{"planned", "memoized"} {
					if got := rawResults(t, url, q); !bytes.Equal(got, want) {
						t.Errorf("n=%d %s (%s): results\n%s\nthe oracle encodes\n%s", n, who, pass, got, want)
					}
				}
			}
		}
	}
}

// TestGatewayShardDown kills one shard and requires a 200 with the
// partial flag, the missing shard listed, and only the surviving
// shards' targets ranked.
func TestGatewayShardDown(t *testing.T) {
	f := startFleet(t, 2, nil)
	down := 1
	f.shardSrv[down].Close()

	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if !got.Partial {
		t.Fatal("response not flagged partial with a shard down")
	}
	if len(got.MissingShards) != 1 || got.MissingShards[0] != down {
		t.Fatalf("missing_shards = %v, want [%d]", got.MissingShards, down)
	}
	if want := f.man.NumTargets - len(f.man.Shards[down].Targets); len(got.Results) != want {
		t.Fatalf("%d results with shard %d down, want %d", len(got.Results), down, want)
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Queries.Partial != 1 {
		t.Fatalf("partial counter = %d, want 1", st.Queries.Partial)
	}
}

// TestGatewayAllShardsDown requires a clean upstream error, not a hang
// or a panic, when nobody answers.
func TestGatewayAllShardsDown(t *testing.T) {
	f := startFleet(t, 2, nil)
	for _, ts := range f.shardSrv {
		ts.Close()
	}
	resp := postQuery(t, f.gwSrv.URL, gccStyle)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all-down query = %d, want 502", resp.StatusCode)
	}
}

// TestGatewayHedging gives shard 0 a slow first replica and a fast
// second one; with a tight hedge budget the query must complete fast
// and the hedge counter must move.
func TestGatewayHedging(t *testing.T) {
	var slowed *httptest.Server
	f := startFleet(t, 2, func(cfg *Config) {
		// A delaying proxy in front of shard 0's real server.
		target := cfg.Shards[0][0]
		slow := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			time.Sleep(400 * time.Millisecond)
			body, _ := io.ReadAll(r.Body)
			req, _ := http.NewRequest(r.Method, target+r.URL.String(), bytes.NewReader(body))
			req.Header = r.Header
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				w.WriteHeader(http.StatusBadGateway)
				return
			}
			defer resp.Body.Close()
			w.WriteHeader(resp.StatusCode)
			io.Copy(w, resp.Body)
		})
		slowed = httptest.NewServer(slow)
		cfg.Shards[0] = []string{slowed.URL, target}
		cfg.HedgeAfter = 25 * time.Millisecond
	})
	t.Cleanup(slowed.Close)

	want := decodeResponse(t, postQuery(t, f.single.URL, gccStyle))
	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	requireSameResults(t, want, got, "hedged")
	if f.gw.hedges.Value() == 0 {
		t.Fatal("hedge counter did not move")
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Hedges == 0 {
		t.Fatal("stats report zero hedges")
	}
}

// TestGatewayRetry gives shard 0 a failing first replica; the retry
// path must fall through to the healthy one and still merge exactly.
func TestGatewayRetry(t *testing.T) {
	var broken *httptest.Server
	f := startFleet(t, 2, func(cfg *Config) {
		broken = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			http.Error(w, "shard on fire", http.StatusInternalServerError)
		}))
		cfg.Shards[0] = []string{broken.URL, cfg.Shards[0][0]}
		cfg.MaxRetries = 2
	})
	t.Cleanup(broken.Close)

	want := decodeResponse(t, postQuery(t, f.single.URL, gccStyle))
	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if got.Partial {
		t.Fatal("retry path flagged partial despite a healthy replica")
	}
	requireSameResults(t, want, got, "retried")
	if f.gw.retries.Value() == 0 {
		t.Fatal("retry counter did not move")
	}
}

// TestGatewayNoRetry: MaxRetries 0 — eshgw -retries 0 — means one attempt
// per replica and no more. A shard whose only replica fails is reported
// missing after exactly one attempt, with esh_gw_retries_total still 0;
// a negative budget is refused.
func TestGatewayNoRetry(t *testing.T) {
	var attempts atomic.Int64
	f := startFleet(t, 2, func(cfg *Config) {
		broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			attempts.Add(1)
			http.Error(w, "shard on fire", http.StatusInternalServerError)
		}))
		t.Cleanup(broken.Close)
		cfg.Shards[1] = []string{broken.URL}
		cfg.MaxRetries = 0
	})
	got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
	if !got.Partial || len(got.MissingShards) != 1 || got.MissingShards[0] != 1 {
		t.Fatalf("partial=%v missing=%v, want shard 1 missing", got.Partial, got.MissingShards)
	}
	var recent struct{ Records []*telemetry.QueryRecord }
	getJSON(t, f.gwSrv.URL+"/debug/queries?n=1", &recent)
	if leg := recent.Records[0].Shards[1]; leg.Attempts != 1 || leg.Err == "" || attempts.Load() != 1 {
		t.Fatalf("failed leg %+v, %d requests reached the replica; want one attempt", leg, attempts.Load())
	}
	fams, err := telemetry.ParseExposition(getURL(t, f.gwSrv.URL+"/metrics").Body)
	if err != nil {
		t.Fatal(err)
	}
	retries := -1.0 // absent
	for _, fam := range fams {
		if fam.Name == "esh_gw_retries_total" {
			retries, _ = fam.Gauge()
		}
	}
	if retries != 0 {
		t.Fatalf("esh_gw_retries_total = %g, want 0", retries)
	}
	if _, err := New(Config{Manifest: f.man, Shards: [][]string{{f.shardSrv[0].URL}, {f.shardSrv[1].URL}}, MaxRetries: -1}); err == nil {
		t.Fatal("a negative retry budget was accepted")
	}
}

// TestGatewayTrace checks fan-out trace stitching: one child span per
// shard, each carrying the shard's remote server-side trace.
func TestGatewayTrace(t *testing.T) {
	f := startFleet(t, 2, nil)
	body, _ := json.Marshal(server.QueryRequest{Asm: gccStyle})
	resp, err := http.Post(f.gwSrv.URL+"/v1/query?trace=1", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	qr := decodeResponse(t, resp)
	if qr.Trace == nil {
		t.Fatal("no trace in ?trace=1 response")
	}
	if len(qr.Trace.Children) != 2 {
		t.Fatalf("trace has %d shard children, want 2", len(qr.Trace.Children))
	}
	for _, c := range qr.Trace.Children {
		if len(c.Children) == 0 {
			t.Fatalf("shard span %s carries no remote trace", c.Name)
		}
		if c.Children[0].Name != "query_partial" {
			t.Fatalf("shard span %s grafted %q, want query_partial", c.Name, c.Children[0].Name)
		}
		if c.Attrs["bytes"] <= 0 {
			t.Fatalf("shard span %s carries no frame size: %v", c.Name, c.Attrs)
		}
	}
}

// tracedTransport attaches a client trace to every request it forwards.
type tracedTransport struct {
	http.RoundTripper
	trace *httptrace.ClientTrace
}

func (t tracedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	return t.RoundTripper.RoundTrip(r.WithContext(httptrace.WithClientTrace(r.Context(), t.trace)))
}

// TestGatewayConnReuse pins the default transport's idle pool to the
// fan-out width: 200 queries sent 8 at a time through one shard are
// served over 8 shard connections. The test is a sequence of rounds so
// that it does not depend on timing: the shard holds each round's legs
// until all 8 have arrived (8 connections are in use at once), and the
// next round starts only after the transport has said what it did with
// each of them. On http.DefaultTransport, which keeps 2 idle connections
// per host, six of every eight are closed on return and redialed.
func TestGatewayConnReuse(t *testing.T) {
	man, shardExs, err := shard.Split(buildCorpus(t).Export(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sdb, err := core.FromExport(shardExs[0])
	if err != nil {
		t.Fatal(err)
	}
	const clients, queries = 8, 200

	var mu sync.Mutex
	arrived, gate := 0, make(chan struct{})
	rendezvous := func() {
		mu.Lock()
		g := gate
		if arrived++; arrived == clients {
			arrived, gate = 0, make(chan struct{})
			close(g)
		}
		mu.Unlock()
		<-g
	}
	h := server.New(sdb, server.Config{Logger: quietLogger(), MaxInFlight: clients}).Handler()
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rendezvous()
		h.ServeHTTP(w, r)
	}))
	var opened atomic.Int64
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			opened.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)

	cfg := Config{Manifest: man, Shards: [][]string{{ts.URL}}, Logger: quietLogger()}.withDefaults()
	returned := make(chan error, clients)
	cfg.Client.Transport = tracedTransport{cfg.Client.Transport, &httptrace.ClientTrace{
		PutIdleConn: func(err error) { returned <- err },
	}}
	gw, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := json.Marshal(server.QueryRequest{Asm: gccStyle})
	for round := 0; round < queries/clients; round++ {
		var wg sync.WaitGroup
		for c := 0; c < clients; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				rec := httptest.NewRecorder()
				gw.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/query", bytes.NewReader(body)))
				if rec.Code != http.StatusOK {
					t.Errorf("query = %d: %s", rec.Code, rec.Body)
				}
			}()
		}
		wg.Wait()
		for c := 0; c < clients; c++ {
			if err := <-returned; err != nil {
				t.Fatalf("round %d: a shard connection was not kept for reuse: %v", round, err)
			}
		}
	}
	if n := opened.Load(); n != clients {
		t.Fatalf("%d queries, %d at a time, opened %d shard connections, want %d", queries, clients, n, clients)
	}
}

// skewedShard fronts a real shard server with a replica of another
// vintage: /v1/query/partial answers 200 with the given body, /v1/stats
// reports the given partial wire version, everything else passes through.
func skewedShard(t *testing.T, real string, wireVersion int, partialBody []byte) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/v1/query/partial":
			w.Write(partialBody)
		case "/v1/stats":
			var st map[string]any
			getJSON(t, real+"/v1/stats", &st)
			st["partial_wire_version"] = wireVersion
			json.NewEncoder(w).Encode(st)
		default:
			http.Error(w, "not proxied", http.StatusNotFound)
		}
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestGatewayWireVersionSkew covers a shard of another build on a fan-out
// leg: a JSON body (what eshd replied before frames) and a frame of an
// unknown version each fail that leg only, with an error naming both
// versions — so the query falls through to a healthy replica, or
// degrades to partial when there is none — and CheckFleet reports the
// replica at startup.
func TestGatewayWireVersionSkew(t *testing.T) {
	stub := &shard.Partial{Identity: shard.Identity{ShardCount: 2}}
	oldJSON, _ := json.Marshal(server.PartialResponse{Partial: stub})
	future, err := (&server.PartialResponse{Partial: stub}).AppendFrame(nil)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(future[4:], shard.WireVersion+1)

	for name, tc := range map[string]struct {
		version int
		body    []byte
		wantErr string
	}{
		"json body":       {0, oldJSON, "not a frame"},
		"unknown version": {shard.WireVersion + 1, future, fmt.Sprintf("wire version %d, want %d", shard.WireVersion+1, shard.WireVersion)},
	} {
		t.Run(name, func(t *testing.T) {
			// Alone on shard 1: the leg fails, the query degrades.
			f := startFleet(t, 2, func(cfg *Config) {
				cfg.Shards[1] = []string{skewedShard(t, cfg.Shards[1][0], tc.version, tc.body).URL}
			})
			got := decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
			if !got.Partial || len(got.MissingShards) != 1 || got.MissingShards[0] != 1 {
				t.Fatalf("partial=%v missing=%v, want shard 1 missing", got.Partial, got.MissingShards)
			}
			var recent struct{ Records []*telemetry.QueryRecord }
			getJSON(t, f.gwSrv.URL+"/debug/queries?n=1", &recent)
			leg := recent.Records[0].Shards[1]
			if !strings.Contains(leg.Err, tc.wantErr) || !strings.Contains(leg.Err, fmt.Sprint(shard.WireVersion)) {
				t.Fatalf("leg error %q does not name the received and expected wire versions", leg.Err)
			}
			errs := f.gw.CheckFleet(context.Background())
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), fmt.Sprintf("wire version %d", tc.version)) {
				t.Fatalf("CheckFleet = %v, want one wire-version error", errs)
			}

			// Ahead of a healthy replica: the retry wins, bit-identically.
			f = startFleet(t, 2, func(cfg *Config) {
				real := cfg.Shards[1][0]
				cfg.Shards[1] = []string{skewedShard(t, real, tc.version, tc.body).URL, real}
			})
			want := decodeResponse(t, postQuery(t, f.single.URL, gccStyle))
			got = decodeResponse(t, postQuery(t, f.gwSrv.URL, gccStyle))
			if got.Partial {
				t.Fatal("flagged partial despite a healthy replica")
			}
			requireSameResults(t, want, got, "after skewed replica")
		})
	}
}

// TestCheckFleet verifies fleet verification: a correct fleet passes,
// and pointing a shard slot at the wrong shard's replica is an error.
func TestCheckFleet(t *testing.T) {
	f := startFleet(t, 2, nil)
	if errs := f.gw.CheckFleet(context.Background()); len(errs) != 0 {
		t.Fatalf("correct fleet: %v", errs)
	}

	// Cross-wire: shard 1's slot points at shard 0's server.
	bad, err := New(Config{
		Manifest: f.man,
		Shards:   [][]string{{f.shardSrv[0].URL}, {f.shardSrv[0].URL}},
		Logger:   quietLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if errs := bad.CheckFleet(context.Background()); len(errs) == 0 {
		t.Fatal("cross-wired fleet passed verification")
	}

	// The tier is part of the fleet's identity: a replica started at
	// another -lsh-min-containment merges heuristic scores into sound
	// ones.
	_, shardExs, err := shard.Split(buildCorpus(t).Export(), 2)
	if err != nil {
		t.Fatal(err)
	}
	replica := func(s int, edit func(*core.Options)) string {
		t.Helper()
		se := *shardExs[s]
		edit(&se.Opts)
		sdb, err := core.FromExport(&se)
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(server.New(sdb, server.Config{Logger: quietLogger()}).Handler())
		t.Cleanup(ts.Close)
		return ts.URL
	}
	heuristic := func(o *core.Options) { o.LSHMinContainment = 0.45 }
	heuristicMan := *f.man
	heuristicMan.LSHMinContainment = 0.45
	for _, tc := range []struct {
		name    string
		man     *shard.Manifest
		shards  [2]func(*core.Options)
		wantErr string // "" = the fleet passes
	}{
		{"sound fleet, one replica at the heuristic tier", f.man,
			[2]func(*core.Options){func(*core.Options) {}, heuristic}, "lsh min containment 0.45, manifest says 0"},
		{"heuristic fleet", &heuristicMan,
			[2]func(*core.Options){heuristic, heuristic}, ""},
	} {
		gw, err := New(Config{
			Manifest: tc.man,
			Shards:   [][]string{{replica(0, tc.shards[0])}, {replica(1, tc.shards[1])}},
			Logger:   quietLogger(),
		})
		if err != nil {
			t.Fatal(err)
		}
		errs := gw.CheckFleet(context.Background())
		switch {
		case tc.wantErr == "" && len(errs) != 0:
			t.Errorf("%s: errors %v, want none", tc.name, errs)
		case tc.wantErr != "" && (len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.wantErr)):
			t.Errorf("%s: errors %v, want one saying %q", tc.name, errs, tc.wantErr)
		}
	}
}

// TestGatewayReadyz exercises the prober: all up → ready; a dead shard
// with no replicas left → 503 naming the shard.
func TestGatewayReadyz(t *testing.T) {
	f := startFleet(t, 2, nil)
	f.gw.probeAll()
	if resp := getURL(t, f.gwSrv.URL+"/readyz"); resp.StatusCode != http.StatusOK {
		t.Fatalf("healthy fleet /readyz = %d", resp.StatusCode)
	}
	f.shardSrv[1].Close()
	f.gw.probeAll()
	if resp := getURL(t, f.gwSrv.URL+"/readyz"); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("shard-down /readyz = %d, want 503", resp.StatusCode)
	}
	st := fetchGatewayStats(t, f.gwSrv.URL)
	if st.Fleet.Ready != 1 || st.Fleet.Replicas != 2 {
		t.Fatalf("fleet health %d/%d, want 1/2", st.Fleet.Ready, st.Fleet.Replicas)
	}
}

func getURL(t *testing.T, url string) *http.Response {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { resp.Body.Close() })
	return resp
}

func fetchGatewayStats(t *testing.T, base string) *StatsResponse {
	t.Helper()
	resp := getURL(t, base+"/v1/stats")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats = %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return &st
}
