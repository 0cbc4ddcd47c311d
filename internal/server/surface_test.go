package server_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"net/http/httputil"
	"net/url"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
	"repro/internal/vcp"
	"repro/internal/wal"
)

const (
	queryProc = `proc checksum_gcc
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
	targetProc = `proc checksum_icc
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
	otherProc = `proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

func surfaceDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{targetProc, otherProc} {
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

func serve(t *testing.T, h http.Handler) string {
	t.Helper()
	ts := httptest.NewServer(h)
	t.Cleanup(ts.Close)
	return ts.URL
}

// call sends body (JSON-encoded unless it is []byte already) and returns
// the response, its body read and closed, and the reply bytes. It reports
// a transport failure as a 0 status, so it may run off the test goroutine.
func call(method, url string, body any) (*http.Response, []byte) {
	b, ok := body.([]byte)
	if !ok && body != nil {
		b, _ = json.Marshal(body)
	}
	req, err := http.NewRequest(method, url, bytes.NewReader(b))
	if err != nil {
		return &http.Response{}, nil
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return &http.Response{}, []byte(err.Error())
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp, out
}

func mustCall(t *testing.T, method, url string, body any) []byte {
	t.Helper()
	resp, out := call(method, url, body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s = %d: %s", method, url, resp.StatusCode, out)
	}
	return out
}

// surface renders what a daemon exposes, without its values: the sorted
// # TYPE lines of /metrics, each family's label names, and the sorted key
// paths of /v1/stats.
func surface(t *testing.T, base string) string {
	t.Helper()
	page := mustCall(t, http.MethodGet, base+"/metrics", nil)
	var types []string
	for _, line := range strings.Split(string(page), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			types = append(types, line)
		}
	}
	sort.Strings(types)
	fams, err := telemetry.ParseExposition(bytes.NewReader(page))
	if err != nil {
		t.Fatalf("%s/metrics: %v", base, err)
	}
	// A family's label names, as the distinct sets its samples carry: on the
	// federated page a family both the gateway and its shards export shows
	// the gateway's own sample beside the shard-labeled ones.
	var labels []string
	for _, f := range fams {
		sets := map[string]bool{}
		for _, s := range f.Samples {
			var keys []string
			for _, l := range s.Labels {
				keys = append(keys, l.K)
			}
			sort.Strings(keys)
			sets["{"+strings.Join(keys, ",")+"}"] = true
		}
		line := []string{f.Name}
		for set := range sets {
			line = append(line, set)
		}
		sort.Strings(line[1:])
		labels = append(labels, strings.Join(line, " "))
	}
	sort.Strings(labels)
	var stats map[string]any
	if err := json.Unmarshal(mustCall(t, http.MethodGet, base+"/v1/stats", nil), &stats); err != nil {
		t.Fatal(err)
	}
	var paths []string
	var walk func(prefix string, v any)
	walk = func(prefix string, v any) {
		obj, ok := v.(map[string]any)
		switch {
		case prefix == "latency_ms": // keyed by the buckets traffic happened to fill
			paths = append(paths, prefix+".*")
		case !ok || len(obj) == 0:
			paths = append(paths, prefix)
		default:
			for k, child := range obj {
				if prefix != "" {
					k = prefix + "." + k
				}
				walk(k, child)
			}
		}
	}
	walk("", stats)
	sort.Strings(paths)
	var b strings.Builder
	for _, block := range [][]string{types, labels, paths} {
		b.WriteString(strings.Join(block, "\n"))
		b.WriteString("\n--\n")
	}
	return b.String()
}

// TestServedSurfaceGolden pins what the two daemons expose: the metric
// families of /metrics (type and label names) and the keys of /v1/stats,
// for eshd serving read-only, eshd with the write API on, and eshgw over
// two shards (its federated page included), each after the traffic that
// registers everything lazily registered. Values are not pinned. A change
// to the golden is a change to what operators scrape and parse: regenerate
// it deliberately with UPDATE_GOLDEN=1 go test -run TestServedSurfaceGolden
// ./internal/server.
func TestServedSurfaceGolden(t *testing.T) {
	query := server.QueryRequest{Asm: queryProc}
	var got strings.Builder

	readOnly := serve(t, server.New(surfaceDB(t), server.Config{Logger: quiet}).Handler())
	mustCall(t, http.MethodPost, readOnly+"/v1/query", query)
	mustCall(t, http.MethodPost, readOnly+"/v1/query/partial", query)
	fmt.Fprintf(&got, "== eshd\n%s", surface(t, readOnly))

	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.eshidx")
	if err := index.SaveFile(snap, surfaceDB(t)); err != nil {
		t.Fatal(err)
	}
	st, err := index.OpenStore(context.Background(), snap, index.StoreOptions{WAL: filepath.Join(dir, "corpus.wal"), Sync: wal.SyncNone, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	writable := serve(t, server.FromStore(st, server.Config{Logger: quiet}).Handler())
	mustCall(t, http.MethodPost, writable+"/v1/query", query)
	mustCall(t, http.MethodPost, writable+"/v1/query/partial", query)
	mustCall(t, http.MethodPost, writable+"/v1/targets", server.WriteRequest{Asm: queryProc})
	mustCall(t, http.MethodDelete, writable+"/v1/targets/checksum_gcc", nil)
	mustCall(t, http.MethodPost, writable+"/v1/compact", nil)
	fmt.Fprintf(&got, "== eshd -wal\n%s", surface(t, writable))

	gw, gwURL := startGateway(t, 2, nil)
	mustCall(t, http.MethodPost, gwURL+"/v1/query", query)
	gw.ScrapeFleet(context.Background())
	fmt.Fprintf(&got, "== eshgw\n%s", surface(t, gwURL))

	golden := filepath.Join("testdata", "surface.golden")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got.String() != string(want) {
		t.Errorf("served surface differs from %s:\n%s", golden, lineDiff(string(want), got.String()))
	}
}

// lineDiff lists the lines only one side has.
func lineDiff(want, got string) string {
	count := map[string]int{}
	for _, l := range strings.Split(want, "\n") {
		count[l]++
	}
	for _, l := range strings.Split(got, "\n") {
		count[l]--
	}
	var out []string
	for l, n := range count {
		switch {
		case n > 0:
			out = append(out, "- "+l)
		case n < 0:
			out = append(out, "+ "+l)
		}
	}
	sort.Strings(out)
	return strings.Join(out, "\n")
}

// TestFrontDoorEdgeCases runs one table of malformed and excess requests
// against the three query endpoints the front door guards — eshd's
// /v1/query and /v1/query/partial and eshgw's /v1/query — and requires of
// each the same status, the same JSON error body and the same counter
// moving by one in /v1/stats. The in-flight limit is 1 on both daemons;
// to saturate it a first query is held in eshd's engine, or in eshgw's
// only shard, until the case has been answered.
func TestFrontDoorEdgeCases(t *testing.T) {
	gate := make(chan struct{})
	eshd := server.New(surfaceDB(t), server.Config{Logger: quiet, MaxInFlight: 1})
	server.HoldEngine(eshd, gate)
	eshdURL := serve(t, eshd.Handler())
	_, gwURL := startGateway(t, 1, func(c *gateway.Config) {
		c.MaxInFlight = 1
		u, err := url.Parse(c.Shards[0][0])
		if err != nil {
			t.Fatal(err)
		}
		proxy := httputil.NewSingleHostReverseProxy(u)
		c.Shards[0][0] = serve(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			<-gate
			proxy.ServeHTTP(w, r)
		}))
	})

	const limit = 8 << 20 // the body cap of both daemons
	envelope := `{"asm":""}`
	overCap := []byte(`{"asm":"` + strings.Repeat("a", limit+1-len(envelope)) + `"}`)
	valid := server.QueryRequest{Asm: queryProc}
	cases := []struct {
		name    string
		body    any
		status  int
		err     string
		counter string // the queries counter the case moves
	}{
		{"body one byte over the cap", overCap, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("request body exceeds %d bytes", limit), "bad_input"},
		{"malformed JSON", []byte(`{asm}`), http.StatusBadRequest,
			"decode request: invalid character 'a' looking for beginning of object key string", "bad_input"},
		{"unknown method", server.QueryRequest{Asm: queryProc, Method: "bogus"}, http.StatusBadRequest,
			`unknown method "bogus" (esh, slog)`, "bad_input"},
		// S-VCP reads the reverse VCP direction, which the engine does not
		// compute: it is an experiments-side baseline, not a served method.
		{"method svcp", server.QueryRequest{Asm: queryProc, Method: "svcp"}, http.StatusBadRequest,
			`unknown method "svcp" (esh, slog)`, "bad_input"},
		{"empty asm", server.QueryRequest{}, http.StatusBadRequest, "no procedure in request", "bad_input"},
		{"in-flight limit reached", valid, http.StatusTooManyRequests, "too many in-flight queries (limit 1)", "rejected"},
	}
	for _, ep := range []struct{ name, base, path string }{
		{"eshd", eshdURL, "/v1/query"},
		{"eshd", eshdURL, "/v1/query/partial"},
		{"eshgw", gwURL, "/v1/query"},
	} {
		for _, tc := range cases {
			label := ep.name + " " + ep.path + ": " + tc.name
			before := queryCounters(t, ep.base)
			held := make(chan int, 1)
			if tc.status == http.StatusTooManyRequests {
				go func() {
					resp, _ := call(http.MethodPost, ep.base+ep.path, valid)
					held <- resp.StatusCode
				}()
				waitInFlight(t, ep.base, 1)
			}
			resp, got := call(http.MethodPost, ep.base+ep.path, tc.body)
			want, _ := json.Marshal(map[string]string{"error": tc.err})
			if resp.StatusCode != tc.status || string(got) != string(want)+"\n" {
				t.Errorf("%s: %d %s, want %d %s", label, resp.StatusCode, got, tc.status, want)
			}
			if tc.status == http.StatusTooManyRequests {
				if ra := resp.Header.Get("Retry-After"); ra != "1" {
					t.Errorf("%s: Retry-After %q, want 1", label, ra)
				}
				gate <- struct{}{}
				if status := <-held; status != http.StatusOK {
					t.Errorf("%s: the held query answered %d", label, status)
				}
				waitInFlight(t, ep.base, 0)
			}
			after := queryCounters(t, ep.base)
			for _, c := range []string{"bad_input", "rejected"} {
				want := before[c]
				if c == tc.counter {
					want++
				}
				if after[c] != want {
					t.Errorf("%s: queries.%s %d → %d, want %d", label, c, before[c], after[c], want)
				}
			}
		}
	}
}

// queryCounters reads the queries block of a daemon's /v1/stats.
func queryCounters(t *testing.T, base string) map[string]uint64 {
	t.Helper()
	var st struct{ Queries map[string]uint64 }
	if err := json.Unmarshal(mustCall(t, http.MethodGet, base+"/v1/stats", nil), &st); err != nil {
		t.Fatal(err)
	}
	return st.Queries
}

// waitInFlight waits until a daemon reports n queries in flight.
func waitInFlight(t *testing.T, base string, n uint64) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); queryCounters(t, base)["in_flight"] != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s never reported %d queries in flight", base, n)
		}
	}
}

// startGateway splits the corpus over n eshd shards and puts eshgw in
// front; edit (optional) adjusts the gateway's config before New.
func startGateway(t *testing.T, n int, edit func(*gateway.Config)) (*gateway.Gateway, string) {
	t.Helper()
	man, exs, err := shard.Split(surfaceDB(t).Export(), n)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.Config{Manifest: man, Logger: quiet}
	for i, ex := range exs {
		sdb, err := core.FromExport(ex)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		cfg.Shards = append(cfg.Shards, []string{serve(t, server.New(sdb, server.Config{Logger: quiet}).Handler())})
	}
	if edit != nil {
		edit(&cfg)
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return gw, serve(t, gw.Handler())
}
