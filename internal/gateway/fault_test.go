package gateway

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// fault is what one replica does with one query's leg.
type fault uint8

const (
	answer fault = iota
	answerLate
	fail5xx
	truncated
	otherWire
	otherGeneration
	otherSlot
	numFaults
)

var faultNames = [numFaults]string{"answer", "answer late", "5xx", "truncated frame",
	"other wire version", "other generation", "other slot"}

func (f fault) String() string { return faultNames[f] }

// good reports whether the leg's reply is one the gateway may merge.
func (f fault) good() bool { return f == answer || f == answerLate }

// scripted serves shard sid's real handler h as replica j, doing with each
// query's leg what plan says for that query's request ID. late is how long
// a late answer waits first.
func scripted(t *testing.T, h http.Handler, plan map[string][][]fault, sid, j, n int, late time.Duration) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/query/partial" {
			h.ServeHTTP(w, r)
			return
		}
		f := plan[r.Header.Get("X-Request-ID")][sid][j]
		switch f {
		case answerLate:
			time.Sleep(late)
			fallthrough
		case answer:
			h.ServeHTTP(w, r)
			return
		case fail5xx:
			http.Error(w, "scripted failure", http.StatusServiceUnavailable)
			return
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		if rec.Code != http.StatusOK {
			t.Errorf("shard %d: %d %s", sid, rec.Code, body)
		}
		switch f {
		case truncated:
			body = body[:len(body)/2]
		case otherWire:
			binary.LittleEndian.PutUint32(body[4:], shard.WireVersion+1)
		case otherGeneration:
			body = relabelFrame(t, body, func(si *core.ShardInfo) { si.Generation += "0" })
		case otherSlot:
			body = relabelFrame(t, body, func(si *core.ShardInfo) { si.ID = (si.ID + 1) % n })
		}
		w.Write(body)
	})
}

// TestGatewayFaultSchedule scripts every leg of every query over N ∈ {2, 3}
// shards × 2 replicas, from a seeded schedule: a replica answers, answers
// past HedgeAfter, replies 5xx, sends a truncated frame, a frame of another
// wire version, or one answered as another generation or slot. Every reply
// must be a 200 whose results are byte for byte a single node's over the
// shards that had a good replica, missing_shards naming the rest — or a
// 502 when no shard had one. One bad replica never fails the query.
func TestGatewayFaultSchedule(t *testing.T) {
	const queriesPerFleet = 16
	const hedgeAfter = 20 * time.Millisecond
	opts := core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2}
	var procs []*asm.Proc
	for _, src := range []string{gccStyle, iccStyle, memStyle} {
		for i := 0; i < 3; i++ {
			name := strings.Fields(src)[1]
			p, err := asm.ParseProc(strings.Replace(src, name, fmt.Sprintf("%s_%d", name, i), 1))
			if err != nil {
				t.Fatal(err)
			}
			procs = append(procs, p)
		}
	}
	db := core.NewDB(opts)
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	queries := []string{gccStyle, iccStyle, memStyle}
	rng := rand.New(rand.NewPCG(61, 0))

	for _, n := range []int{2, 3} {
		man, shardExs, err := shard.Split(db.Export(), n)
		if err != nil {
			t.Fatal(err)
		}
		owner := make([]int, len(procs)) // each target's shard
		for s, se := range shardExs {
			if len(se.Targets) == 0 {
				t.Fatalf("n=%d: shard %d holds no target", n, s)
			}
			for _, et := range se.Targets {
				owner[et.SplitPos-1] = s
			}
		}
		// want returns the results a single node holding the targets of
		// the shards in good sends for q.
		wantMemo := map[string][]byte{}
		want := func(good []bool, q string) []byte {
			key := fmt.Sprint(good, q)
			if b, ok := wantMemo[key]; ok {
				return b
			}
			ref := core.NewDB(opts)
			for ti, p := range procs {
				if good[owner[ti]] {
					if err := ref.AddTarget(p); err != nil {
						t.Fatal(err)
					}
				}
			}
			p, err := asm.ParseProc(q)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := ref.Query(p)
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(server.BuildQueryResponse(rep, stats.Esh, 100).Results)
			if err != nil {
				t.Fatal(err)
			}
			wantMemo[key] = b
			return b
		}

		// The schedule, and what each query must get: the shards with no
		// good replica are missing.
		plan := map[string][][]fault{}
		missing := make([][]int, queriesPerFleet)
		results := make([][]byte, queriesPerFleet)
		seen := make([]int, numFaults)
		kinds := map[int]bool{} // shards missing per reply
		for k := range queriesPerFleet {
			legs := make([][]fault, n)
			good := make([]bool, n)
			for s := range legs {
				legs[s] = []fault{fault(rng.IntN(int(numFaults))), fault(rng.IntN(int(numFaults)))}
				seen[legs[s][0]]++
				seen[legs[s][1]]++
				if good[s] = legs[s][0].good() || legs[s][1].good(); !good[s] {
					missing[k] = append(missing[k], s)
				}
			}
			plan[fmt.Sprintf("fault-%d-%d", n, k)] = legs
			kinds[len(missing[k])] = true
			if len(missing[k]) < n {
				results[k] = want(good, queries[k%len(queries)])
			}
		}
		if i := slices.Index(seen, 0); i >= 0 {
			t.Fatalf("n=%d: the schedule never scripts %q", n, faultNames[i])
		}
		if !kinds[0] || !kinds[n] || len(kinds) < 3 {
			t.Fatalf("n=%d: the schedule's replies miss %v shards only; want a complete, a partial and a failed one", n, kinds)
		}

		var urls [][]string
		for s, se := range shardExs {
			sdb, err := core.FromExport(se)
			if err != nil {
				t.Fatal(err)
			}
			h := server.New(sdb, server.Config{Logger: quietLogger()}).Handler()
			var reps []string
			for j := 0; j < 2; j++ {
				ts := httptest.NewServer(scripted(t, h, plan, s, j, n, 2*hedgeAfter))
				t.Cleanup(ts.Close)
				reps = append(reps, ts.URL)
			}
			urls = append(urls, reps)
		}
		gw, err := New(Config{Manifest: man, Shards: urls, QueryTimeout: 30 * time.Second,
			HedgeAfter: hedgeAfter, MaxRetries: 1, RetryBackoff: 2 * time.Millisecond, Logger: quietLogger()})
		if err != nil {
			t.Fatal(err)
		}
		gwSrv := httptest.NewServer(gw.Handler())
		t.Cleanup(gwSrv.Close)

		// Two clients share the schedule, so refused frames race good ones
		// through each slot's target table.
		work := make(chan int)
		var wg sync.WaitGroup
		for c := 0; c < 2; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for k := range work {
					rid := fmt.Sprintf("fault-%d-%d", n, k)
					q := queries[k%len(queries)]
					status, body := postWithID(t, gwSrv.URL, rid, q)
					label := fmt.Sprintf("n=%d query %d, legs %v", n, k, plan[rid])
					if len(missing[k]) == n {
						if status != http.StatusBadGateway {
							t.Errorf("%s: %d %.300s, want 502 with no good replica", label, status, body)
						}
						continue
					}
					var reply QueryResponse
					if status != http.StatusOK || json.Unmarshal(body, &reply) != nil {
						t.Errorf("%s: %d %.300s, want 200", label, status, body)
						continue
					}
					if reply.Partial != (len(missing[k]) > 0) || !slices.Equal(reply.MissingShards, missing[k]) {
						t.Errorf("%s: partial=%v missing_shards=%v, want %v", label, reply.Partial, reply.MissingShards, missing[k])
					}
					if got := resultsOf(t, body); !bytes.Equal(got, results[k]) {
						t.Errorf("%s: results\n%s\na single node over the good shards sends\n%s", label, got, results[k])
					}
				}
			}()
		}
		for k := range queriesPerFleet {
			work <- k
		}
		close(work)
		wg.Wait()
		t.Logf("n=%d: %d retries, %d hedges", n, gw.retries.Value(), gw.hedges.Value())
	}
}

// postWithID sends one query under the given request ID.
func postWithID(t *testing.T, url, rid, asmText string) (int, []byte) {
	body, _ := json.Marshal(server.QueryRequest{Asm: asmText, Top: 100})
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query", bytes.NewReader(body))
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	req.Header.Set("X-Request-ID", rid)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return 0, nil
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Error(err)
	}
	return resp.StatusCode, b
}
