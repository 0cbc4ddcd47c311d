package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/shard"
)

// swappable serves whatever handler it holds now: a replica that restarts
// at the same address, possibly on other settings or another snapshot.
type swappable struct{ h atomic.Pointer[http.Handler] }

func (s *swappable) ServeHTTP(w http.ResponseWriter, r *http.Request) { (*s.h.Load()).ServeHTTP(w, r) }

func (s *swappable) set(h http.Handler) { s.h.Store(&h) }

// storeReplica serves a shard snapshot the way eshd -index does.
func storeReplica(t *testing.T, path string) http.Handler {
	t.Helper()
	st, err := index.OpenStore(context.Background(), path, index.StoreOptions{Logger: quietLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return server.FromStore(st, server.Config{Logger: quietLogger()}).Handler()
}

// post sends one query and returns the status and the body.
func post(url, asmText string) (int, []byte, error) {
	body, _ := json.Marshal(server.QueryRequest{Asm: asmText, Top: 100})
	resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// resultsOf is a reply's "results" array exactly as it was encoded.
func resultsOf(t testing.TB, body []byte) []byte {
	var r struct{ Results json.RawMessage }
	if err := json.Unmarshal(body, &r); err != nil {
		t.Errorf("reply %q: %v", body, err)
	}
	return r.Results
}

// TestGatewayRefusesSwappedReplica: the fleet rule holds on every query,
// not only at boot. A replica that passed CheckFleet and then restarts on
// a snapshot of the same partition split at other settings fails the
// query with a 500 naming the shard, the field and both values — the
// message a fresh CheckFleet gives for the same replica.
func TestGatewayRefusesSwappedReplica(t *testing.T) {
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5"} {
		tc, _ := compile.ByName(n)
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: true})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB(core.Options{Workers: 2})
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	icc, _ := compile.ByName("icc-15.0.1")
	q, err := corpus.CompileVuln(corpus.Vulns()[0], icc, false)
	if err != nil {
		t.Fatal(err)
	}
	query := q.String()

	dir := t.TempDir()
	ex := db.Export()
	man, _, err := shard.SaveShards(filepath.Join(dir, "a"), ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	// The sample count is part of the split's generation: a re-split at
	// another one is another fleet.
	resplit := *ex
	resplit.Opts.VCP.Samples = 41
	reman, _, err := shard.SaveShards(filepath.Join(dir, "b"), &resplit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reman.Generation == man.Generation {
		t.Fatalf("re-split at another sample count: generation %s both times", man.Generation)
	}
	shardPath := func(prefix string, s int) string { return filepath.Join(dir, fmt.Sprintf("%s.%d", prefix, s)) }
	for _, tc := range []struct {
		name    string
		swap    http.Handler
		wantErr string
	}{
		{"re-split snapshot", storeReplica(t, shardPath("b", 1)),
			fmt.Sprintf("shard 1: generation %q, manifest says %q", reman.Generation, man.Generation)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var urls [][]string
			var replica1 swappable
			for s := range man.Shards {
				var h http.Handler = storeReplica(t, shardPath("a", s))
				if s == 1 {
					replica1.set(h)
					h = &replica1
				}
				ts := httptest.NewServer(h)
				t.Cleanup(ts.Close)
				urls = append(urls, []string{ts.URL})
			}
			gw, err := New(Config{Manifest: man, Shards: urls, Logger: quietLogger()})
			if err != nil {
				t.Fatal(err)
			}
			gwSrv := httptest.NewServer(gw.Handler())
			t.Cleanup(gwSrv.Close)
			if errs := gw.CheckFleet(context.Background()); len(errs) != 0 {
				t.Fatalf("fleet before the swap: %v", errs)
			}
			if status, body, err := post(gwSrv.URL, query); err != nil || status != http.StatusOK {
				t.Fatalf("before the swap: %d %s %v", status, body, err)
			}

			replica1.set(tc.swap)
			status, body, err := post(gwSrv.URL, query)
			if err != nil {
				t.Fatal(err)
			}
			var reply struct{ Error string }
			if status != http.StatusInternalServerError || json.Unmarshal(body, &reply) != nil || !strings.Contains(reply.Error, tc.wantErr) {
				t.Fatalf("after the swap: %d %.300s, want 500 saying %q", status, body, tc.wantErr)
			}
			errs := gw.CheckFleet(context.Background())
			if len(errs) != 1 || !strings.Contains(errs[0].Error(), tc.wantErr) {
				t.Fatalf("CheckFleet after the swap = %v, want one error saying %q", errs, tc.wantErr)
			}
		})
	}
}

// TestGatewayHistory is the gateway half of the concurrent-history check:
// a writer adds, removes and compacts on shard 1's database directly while
// two readers query the gateway. Every reply must be a 200 whose results
// are byte-identical to a single node's after some prefix of shard 1's
// writes — a node that took the same writes in the same order — whichever
// corpus version each shard answered from. Replies sent before the first
// write match the unwritten node, and replies sent after the last match
// the node that took them all. No reply is a 500.
func TestGatewayHistory(t *testing.T) {
	f := startFleet(t, 2, nil)
	queries := []string{gccStyle, iccStyle, memStyle}

	var writes []func(*core.DB) error
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("written_%d", i)
		p, err := asm.ParseProc(strings.Replace(memStyle, "save_pair", name, 1))
		if err != nil {
			t.Fatal(err)
		}
		writes = append(writes, func(db *core.DB) error { return db.ApplyAdd(p) })
		if i%2 == 1 {
			writes = append(writes, func(db *core.DB) error { _, err := db.ApplyRemove(name); return err })
		}
	}
	// want[q][k] is the reference's results for q after k writes.
	ref, err := core.FromExport(buildCorpus(t).Export())
	if err != nil {
		t.Fatal(err)
	}
	refSrv := httptest.NewServer(server.New(ref, server.Config{Logger: quietLogger()}).Handler())
	t.Cleanup(refSrv.Close)
	want := map[string][][]byte{}
	for k := 0; ; k++ {
		for _, q := range queries {
			want[q] = append(want[q], rawResults(t, refSrv.URL, q))
		}
		if k == len(writes) {
			break
		}
		if err := writes[k](ref); err != nil {
			t.Fatal(err)
		}
	}
	prefix := func(q string, results []byte) int {
		for k, w := range want[q] {
			if bytes.Equal(results, w) {
				return k
			}
		}
		return -1
	}

	var seen sync.Map // the first prefix each reply matched
	var raced atomic.Int64
	var writing, wrote atomic.Bool // the writer has started, has finished
	var wg sync.WaitGroup
	firstReplies := make(chan struct{}, 2)
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			// Read until a reply has been seen after the last write.
			for i, afterWrites := 0, 0; afterWrites < 3; i++ {
				done := wrote.Load()
				if writing.Load() && !done {
					raced.Add(1)
				}
				q := queries[(r+i)%len(queries)]
				status, body, err := post(f.gwSrv.URL, q)
				if i == 0 {
					firstReplies <- struct{}{}
				}
				if err != nil || status != http.StatusOK {
					t.Errorf("reader %d: %d %s %v", r, status, body, err)
					return
				}
				results := resultsOf(t, body)
				k := prefix(q, results)
				switch {
				case k < 0:
					t.Errorf("reader %d: results %s match no prefix of the writes", r, results)
					return
				case i == 0 && !bytes.Equal(results, want[q][0]), done && !bytes.Equal(results, want[q][len(writes)]):
					t.Errorf("reader %d: reply %d matches %d writes first (writer done: %v)", r, i, k, done)
					return
				}
				seen.Store(k, true)
				if done {
					afterWrites++
				}
			}
		}(r)
	}

	<-firstReplies
	<-firstReplies
	db := f.shardDB[1]
	writing.Store(true)
	for _, w := range writes {
		if err := w(db); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	if _, _, err := db.Compact(nil, nil); err != nil {
		t.Fatal(err)
	}
	wrote.Store(true)
	wg.Wait()
	prefixes := 0
	seen.Range(func(any, any) bool { prefixes++; return true })
	t.Logf("replies matched %d of %d prefixes; %d sent while the writer ran", prefixes, len(writes)+1, raced.Load())
	if prefixes < 2 {
		t.Fatalf("replies matched %d prefix: the history did not cover both sides of the first write", prefixes)
	}
}
