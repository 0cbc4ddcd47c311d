package server_test

import (
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/vcp"
)

// poolCorpus returns fifteen targets — five renamed copies of each of the
// three procedures, every copy's constant shifted — and six hot-set texts
// drawn from the same shapes.
func poolCorpus() (targets, texts []string) {
	variant := func(src, name string, i int) string {
		src = strings.Replace(src, "proc "+name, fmt.Sprintf("proc %s_%d", name, i), 1)
		return strings.ReplaceAll(src, "0x20", fmt.Sprintf("%#x", 0x20+8*i))
	}
	for i := 0; i < 5; i++ {
		targets = append(targets, variant(queryProc, "checksum_gcc", i), variant(targetProc, "checksum_icc", i), variant(otherProc, "save_pair", i))
	}
	for i := 0; i < 3; i++ {
		texts = append(texts, variant(queryProc, "checksum_gcc", 7+i))
	}
	return targets, append(texts, variant(targetProc, "checksum_icc", 9), otherProc, queryProc)
}

func poolDB(t *testing.T, srcs []string) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range srcs {
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

// poolCall posts one query under a fixed request ID, so that two replies to
// the same request are comparable byte for byte.
func poolCall(url, text, method string) (int, []byte) {
	req, err := http.NewRequest(http.MethodPost, url+"/v1/query",
		strings.NewReader(fmt.Sprintf(`{"asm": %q, "method": %q, "top": 100}`, text, method)))
	if err != nil {
		return 0, []byte(err.Error())
	}
	req.Header.Set("X-Request-ID", "pooled")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, out
}

// TestPooledScratchNotShared holds every pooled per-target slab to its one
// owner. Goroutines send distinct hot-set texts, ranked by both methods, at
// once through eshd's /v1/query and through eshgw over two shard eshds, all
// in one process and so drawing on the same pools; every reply must be
// byte-identical to the text's answer from a fresh daemon asked one query
// at a time. Before they start, one query is held in eshd's engine past
// its timeout: it answers 504 while its engine call still runs, and the
// call then completes alongside the others. A slab handed back while a
// query still reads it — on the 504, twice, or by anyone but its owner —
// shows as a wrong reply or, under -race, as a data race.
func TestPooledScratchNotShared(t *testing.T) {
	targets, texts := poolCorpus()
	methods := []string{"esh", "slog"}

	oracleURL := serve(t, server.New(poolDB(t, targets), server.Config{Logger: quiet}).Handler())
	want := map[string][]byte{}
	for _, text := range texts {
		for _, m := range methods {
			status, body := poolCall(oracleURL, text, m)
			if status != http.StatusOK {
				t.Fatalf("oracle: %d %s", status, body)
			}
			want[m+text] = body
		}
	}

	db := poolDB(t, targets)
	gate := make(chan struct{})
	eshd := server.New(db, server.Config{Logger: quiet, MaxInFlight: 64, QueryTimeout: time.Second})
	server.HoldEngine(eshd, gate)
	eshdURL := serve(t, eshd.Handler())

	man, exs, err := shard.Split(db.Export(), 2)
	if err != nil {
		t.Fatal(err)
	}
	cfg := gateway.Config{Manifest: man, Logger: quiet, MaxInFlight: 64}
	for i, ex := range exs {
		sdb, err := core.FromExport(ex)
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		cfg.Shards = append(cfg.Shards, []string{serve(t, server.New(sdb, server.Config{Logger: quiet, MaxInFlight: 64}).Handler())})
	}
	gw, err := gateway.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	gwURL := serve(t, gw.Handler())

	if status, body := poolCall(eshdURL, texts[0], "slog"); status != http.StatusGatewayTimeout {
		t.Fatalf("the held query answered %d, want 504: %s", status, body)
	}
	close(gate) // the timed-out engine call now runs with the others

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 3*len(texts); i++ {
				text, m := texts[(g+i)%len(texts)], methods[(g+i/len(texts))%2]
				for _, url := range []string{eshdURL, gwURL} {
					if status, body := poolCall(url, text, m); status != http.StatusOK || string(body) != string(want[m+text]) {
						t.Errorf("%s %s query %d: %d %s\nwant %s", url, m, i, status, body, want[m+text])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}
