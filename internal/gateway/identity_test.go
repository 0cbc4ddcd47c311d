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
	"slices"
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
	"repro/internal/telemetry"
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

// relabeled serves h, but answers as the identity edit makes of its own:
// every partial frame goes through DecodeFrame, the edit of Partial.Shard
// and AppendTo, and /v1/stats reports the edited identity too. It stands
// for a replica of another slot, fleet size or generation.
func relabeled(t testing.TB, h http.Handler, edit func(*core.ShardInfo)) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code == http.StatusOK {
			switch r.URL.Path {
			case "/v1/query/partial":
				body = relabelFrame(t, body, edit)
			case "/v1/stats":
				var st server.StatsResponse
				if err := json.Unmarshal(body, &st); err != nil {
					t.Error(err)
				}
				si := core.ShardInfo{ID: st.Snapshot.ShardID, Count: st.Snapshot.ShardCount, Generation: st.Snapshot.Generation}
				edit(&si)
				st.Snapshot.ShardID, st.Snapshot.ShardCount, st.Snapshot.Generation = si.ID, si.Count, si.Generation
				body, _ = json.Marshal(&st)
			}
		}
		w.WriteHeader(rec.Code)
		w.Write(body)
	})
}

// relabelFrame re-encodes a partial frame with its shard identity edited.
func relabelFrame(t testing.TB, frame []byte, edit func(*core.ShardInfo)) []byte {
	f, err := shard.DecodeFrame(frame, nil)
	if err != nil {
		t.Error(err)
		return frame
	}
	defer f.Partial.Release()
	edit(&f.Partial.Shard)
	out, err := f.AppendTo(nil)
	if err != nil {
		t.Error(err)
	}
	return out
}

// TestGatewayRefusesSwappedReplica: the fleet rule holds on every leg,
// not only at boot. A replica that passed CheckFleet and then restarts on
// a snapshot of the same partition split at other settings, or answers as
// another generation, fleet size or slot, fails its leg like any bad
// reply: with a good second replica the query is a 200 with the healthy
// fleet's results, byte for byte; alone on its slot the slot is reported
// missing, and the leg's error names the shard, the field, both values and
// the replica — the message a fresh CheckFleet gives for it.
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
	serve := func(h http.Handler) string {
		ts := httptest.NewServer(h)
		t.Cleanup(ts.Close)
		return ts.URL
	}
	shard1 := storeReplica(t, shardPath("a", 1))
	shard0URL, spareURL := serve(storeReplica(t, shardPath("a", 0))), serve(shard1)
	relabel := func(edit func(*core.ShardInfo)) http.Handler { return relabeled(t, shard1, edit) }
	for _, tc := range []struct {
		name    string
		swap    http.Handler
		wantErr string
	}{
		{"re-split snapshot", storeReplica(t, shardPath("b", 1)),
			fmt.Sprintf("shard 1: generation %q, manifest says %q", reman.Generation, man.Generation)},
		{"other generation", relabel(func(si *core.ShardInfo) { si.Generation = "deadbeef" }),
			fmt.Sprintf("shard 1: generation %q, manifest says %q", "deadbeef", man.Generation)},
		{"other fleet size", relabel(func(si *core.ShardInfo) { si.Count = 3 }), "shard 1: serves shard 1/3, manifest slot is 1/2"},
		{"other slot", relabel(func(si *core.ShardInfo) { si.ID = 0 }), "shard 1: serves shard 0/2, manifest slot is 1/2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var replica1 swappable
			replica1.set(shard1)
			swapped := serve(&replica1)
			gateway := func(slot1 ...string) (*Gateway, string) {
				gw, err := New(Config{Manifest: man, Shards: [][]string{{shard0URL}, slot1},
					RetryBackoff: time.Millisecond, Logger: quietLogger()})
				if err != nil {
					t.Fatal(err)
				}
				if errs := gw.CheckFleet(context.Background()); len(errs) != 0 {
					t.Fatalf("fleet before the swap: %v", errs)
				}
				return gw, serve(gw.Handler())
			}
			paired, pairedURL := gateway(swapped, spareURL)
			alone, aloneURL := gateway(swapped)
			status, healthy, err := post(pairedURL, query)
			if err != nil || status != http.StatusOK {
				t.Fatalf("before the swap: %d %s %v", status, healthy, err)
			}

			replica1.set(tc.swap)
			// Ahead of a good replica: the retry answers, byte for byte.
			retries := paired.retries.Value()
			status, body, err := post(pairedURL, query)
			var reply QueryResponse
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &reply) != nil || reply.Partial {
				t.Fatalf("after the swap, with a good replica: %d %.300s %v, want a complete 200", status, body, err)
			}
			if got, want := resultsOf(t, body), resultsOf(t, healthy); !bytes.Equal(got, want) {
				t.Fatalf("after the swap, with a good replica: results\n%s\nthe healthy fleet's\n%s", got, want)
			}
			if paired.retries.Value() != retries+1 {
				t.Fatalf("esh_gw_retries_total moved by %d, want 1 for the refused leg", paired.retries.Value()-retries)
			}
			// Alone on its slot: the slot is missing, and the leg says why.
			status, body, err = post(aloneURL, query)
			reply = QueryResponse{}
			if err != nil || status != http.StatusOK || json.Unmarshal(body, &reply) != nil ||
				!reply.Partial || !slices.Equal(reply.MissingShards, []int{1}) {
				t.Fatalf("after the swap, alone: %d %.300s %v, want a 200 missing shard 1", status, body, err)
			}
			var recent struct{ Records []*telemetry.QueryRecord }
			getJSON(t, aloneURL+"/debug/queries?n=1", &recent)
			if leg := recent.Records[0].Shards[1]; !strings.Contains(leg.Err, tc.wantErr) || !strings.Contains(leg.Err, swapped) {
				t.Fatalf("leg error %q, want one naming replica %s and saying %q", leg.Err, swapped, tc.wantErr)
			}
			want := fmt.Sprintf("%s (replica %s)", tc.wantErr, swapped)
			if errs := alone.CheckFleet(context.Background()); len(errs) != 1 || errs[0].Error() != want {
				t.Fatalf("CheckFleet after the swap = %v, want one error %q", errs, want)
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
