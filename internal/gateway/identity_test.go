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

// storeReplica serves a shard snapshot the way eshd -index does, under an
// options override (nil: the snapshot's own).
func storeReplica(t *testing.T, path string, override index.Override) http.Handler {
	t.Helper()
	st, err := index.OpenStore(context.Background(), path, index.StoreOptions{Override: override, Logger: quietLogger()})
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
// not only at boot. A replica that passed CheckFleet and then restarts at
// the heuristic tier (eshd -lsh-min-containment 0.45 on its own
// snapshot), or on a re-split snapshot of the same generation, fails the
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
	man, err := shard.SaveShards(filepath.Join(dir, "a"), ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Sample count is not part of the split's generation: a re-split at
	// another one is a fleet of the same generation, other snapshots.
	resplit := *ex
	resplit.Opts.VCP.Samples = 41
	reman, err := shard.SaveShards(filepath.Join(dir, "b"), &resplit, 2)
	if err != nil {
		t.Fatal(err)
	}
	if reman.Generation != man.Generation || reman.Shards[1].Checksum == man.Shards[1].Checksum {
		t.Fatalf("re-split: generation %s/%s, checksum %s/%s", reman.Generation, man.Generation, reman.Shards[1].Checksum, man.Shards[1].Checksum)
	}
	shardPath := func(prefix string, s int) string { return filepath.Join(dir, fmt.Sprintf("%s.%d", prefix, s)) }
	heuristic := func(o core.Options) (core.Options, error) {
		o.LSHMinContainment = 0.45
		return o, nil
	}

	// What a merge that let the heuristic replica in would answer: its
	// partial, passed off as sound, beside shard 0's — not the single
	// node's answer.
	var parts []*shard.Partial
	for s, override := range []index.Override{nil, heuristic} {
		sdb, _, err := index.LoadFileInfoCtx(context.Background(), shardPath("a", s), override)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := sdb.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, shard.FromQueryPartial(qp, sdb.Shard()))
	}
	parts[1].MinContainment = 0
	mixed, _, err := shard.Merge(man, parts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if mixed.Results[0].GES == want.Results[0].GES {
		t.Fatalf("the heuristic replica does not move the top score (%g): the case tests nothing", want.Results[0].GES)
	}

	for _, tc := range []struct {
		name    string
		swap    http.Handler
		wantErr string
	}{
		{"heuristic tier", storeReplica(t, shardPath("a", 1), heuristic), "shard 1: lsh min containment 0.45, manifest says 0"},
		{"re-split snapshot", storeReplica(t, shardPath("b", 1), nil),
			fmt.Sprintf("shard 1: snapshot checksum %.12s…, manifest says %.12s…", reman.Shards[1].Checksum, man.Shards[1].Checksum)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var urls [][]string
			var replica1 swappable
			for s := range man.Shards {
				var h http.Handler = storeReplica(t, shardPath("a", s), nil)
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
			if status != http.StatusInternalServerError || !strings.Contains(string(body), tc.wantErr) {
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
// two readers query the gateway. Every reply must be either a 200 whose
// results are byte-identical to the single node's on the unwritten union
// corpus, or a 500 naming shard 1's drift — never a merge of a drifted
// shard's rows, whichever corpus version a query ran against.
func TestGatewayHistory(t *testing.T) {
	f := startFleet(t, 2, nil)
	queries := []string{gccStyle, iccStyle, memStyle}
	want := map[string][]byte{}
	for _, q := range queries {
		want[q] = rawResults(t, f.single.URL, q)
	}
	const drift = "shard 1: drifted from its snapshot"

	var merged, refused, raced atomic.Int64
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
				switch {
				case err != nil:
					t.Errorf("reader %d: %v", r, err)
					return
				case status == http.StatusOK && bytes.Equal(resultsOf(t, body), want[q]):
					merged.Add(1)
				case status == http.StatusInternalServerError && strings.Contains(string(body), drift):
					refused.Add(1)
				default:
					t.Errorf("reader %d: %d %s: neither the single node's results nor a drift refusal", r, status, body)
					return
				}
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
	for i := 0; i < 20; i++ {
		name := fmt.Sprintf("written_%d", i)
		p, err := asm.ParseProc(strings.Replace(memStyle, "save_pair", name, 1))
		if err != nil {
			t.Fatal(err)
		}
		if err := db.ApplyAdd(p); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
		if i%2 == 1 {
			if _, err := db.ApplyRemove(name); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, _, err := db.Compact(nil, nil); err != nil {
		t.Fatal(err)
	}
	wrote.Store(true)
	wg.Wait()
	t.Logf("%d replies merged, %d refused as drift, %d sent while the writer ran", merged.Load(), refused.Load(), raced.Load())
	if merged.Load() < 2 || refused.Load() < 6 {
		t.Fatalf("%d merged, %d refused: the history did not cover both sides of the first write", merged.Load(), refused.Load())
	}
}
