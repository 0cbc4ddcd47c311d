package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/vcp"
	"repro/internal/wal"
)

func doJSON(t *testing.T, method, url string, body any) (*http.Response, []byte) {
	t.Helper()
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			t.Fatal(err)
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, b
}

// TestWritesDisabledByDefault: an in-memory server (no store) answers 501
// on every write endpoint, and the read API is untouched.
func TestWritesDisabledByDefault(t *testing.T) {
	db := testDB(t)
	_, ts := newTestServer(t, db, quietConfig(), nil)

	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/targets"},
		{http.MethodDelete, "/v1/targets/checksum_icc"},
		{http.MethodPost, "/v1/compact"},
	} {
		resp, body := doJSON(t, c.method, ts.URL+c.path, WriteRequest{Asm: gccStyle})
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s: status %d, want 501 (%s)", c.method, c.path, resp.StatusCode, body)
		}
	}
	if n := db.NumTargets(); n != 2 {
		t.Fatalf("disabled writes mutated the corpus: %d targets", n)
	}
}

// storeServer serves db the way eshd does: saved as a snapshot and opened
// by an index.Store, with a write-ahead log beside it when writable. It
// returns the store's database, the one the server writes to.
func storeServer(t *testing.T, db *core.DB, writable bool) (*core.DB, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	snap := filepath.Join(dir, "corpus.eshidx")
	if err := index.SaveFile(snap, db); err != nil {
		t.Fatal(err)
	}
	opts := index.StoreOptions{Sync: wal.SyncNone, Logger: quietConfig().Logger}
	if writable {
		opts.WAL = filepath.Join(dir, "corpus.wal")
	}
	st, err := index.OpenStore(context.Background(), snap, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	ts := httptest.NewServer(FromStore(st, quietConfig()).Handler())
	t.Cleanup(ts.Close)
	return st.DB(), ts
}

func TestWriteEndpoints(t *testing.T) {
	db, ts := storeServer(t, testDB(t), true)

	// Add: 200, names in order, pending count bumps.
	resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/targets", WriteRequest{Asm: gccStyle})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("add: status %d: %s", resp.StatusCode, body)
	}
	var wr WriteResponse
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.Added) != 1 || wr.Added[0] != "checksum_gcc" || wr.PendingWrites != 1 {
		t.Fatalf("add response: %+v", wr)
	}

	// The new target answers queries immediately.
	qresp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle, Method: "esh", Top: 10})
	if qresp.StatusCode != http.StatusOK {
		t.Fatalf("query after add: status %d", qresp.StatusCode)
	}
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Results) != 3 || qr.Results[0].Target != "checksum_gcc" {
		t.Fatalf("query after add: %d results, top %q", len(qr.Results), qr.Results[0].Target)
	}

	// Duplicate add: 409, nothing applied.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/targets", WriteRequest{Asm: gccStyle})
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("duplicate add: status %d: %s", resp.StatusCode, body)
	}

	// Unparseable and empty bodies: 400.
	for _, asmText := range []string{"not assembler at all {", ""} {
		resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/targets", WriteRequest{Asm: asmText})
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad asm %q: status %d: %s", asmText, resp.StatusCode, body)
		}
	}

	// Delete: 200 with the tombstone count; the target stops answering.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/targets/checksum_gcc", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delete: status %d: %s", resp.StatusCode, body)
	}
	if err := json.Unmarshal(body, &wr); err != nil {
		t.Fatal(err)
	}
	if wr.Removed != 1 || wr.PendingWrites != 2 {
		t.Fatalf("delete response: %+v", wr)
	}

	// Delete of an unknown name: 404.
	resp, body = doJSON(t, http.MethodDelete, ts.URL+"/v1/targets/no_such_proc", nil)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing delete: status %d: %s", resp.StatusCode, body)
	}

	// GET /v1/targets lists only live targets.
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/targets", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("targets: status %d", resp.StatusCode)
	}
	if bytes.Contains(body, []byte("checksum_gcc")) {
		t.Fatalf("tombstoned target still listed: %s", body)
	}

	// Stats report the drift...
	resp, body = doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: status %d", resp.StatusCode)
	}
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if !st.Writes.Enabled || st.Writes.PendingWrites != 2 || st.Writes.Tombstones != 1 {
		t.Fatalf("stats writes block: %+v", st.Writes)
	}
	if st.Index.LiveTargets != 2 {
		t.Fatalf("stats live targets = %d, want 2", st.Index.LiveTargets)
	}

	// ...until compaction folds it into generation 1.
	resp, body = doJSON(t, http.MethodPost, ts.URL+"/v1/compact", nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("compact: status %d: %s", resp.StatusCode, body)
	}
	var cr struct {
		Generation    uint64 `json:"generation"`
		PendingWrites int    `json:"pending_writes"`
	}
	if err := json.Unmarshal(body, &cr); err != nil {
		t.Fatal(err)
	}
	if cr.Generation != 1 || cr.PendingWrites != 0 {
		t.Fatalf("compact response: %s", body)
	}
	if db.Tombstones() != 0 || db.PendingWrites() != 0 {
		t.Fatalf("post-compact drift: tombstones=%d pending=%d", db.Tombstones(), db.PendingWrites())
	}
}

// TestCompactWithoutWAL: a snapshot served without a write-ahead log
// (eshd without -wal) has nothing to make a write durable with, so every
// write endpoint, compaction included, answers 501, and /v1/stats names
// the snapshot with writes off.
func TestCompactWithoutWAL(t *testing.T) {
	db, ts := storeServer(t, testDB(t), false)
	for _, c := range []struct{ method, path string }{
		{http.MethodPost, "/v1/compact"},
		{http.MethodPost, "/v1/targets"},
		{http.MethodDelete, "/v1/targets/checksum_icc"},
	} {
		resp, body := doJSON(t, c.method, ts.URL+c.path, WriteRequest{Asm: gccStyle})
		if resp.StatusCode != http.StatusNotImplemented {
			t.Errorf("%s %s: status %d, want 501 (%s)", c.method, c.path, resp.StatusCode, body)
		}
	}
	_, body := doJSON(t, http.MethodGet, ts.URL+"/v1/stats", nil)
	var st StatsResponse
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.Writes.Enabled || st.Writes.WAL != nil || st.Snapshot.Version != index.Version {
		t.Fatalf("read-only store: writes %+v, snapshot %+v", st.Writes, st.Snapshot)
	}
	if n := db.NumTargets(); n != 2 {
		t.Fatalf("disabled writes mutated the corpus: %d targets", n)
	}
}

// TestCompactionUnderLoad runs writers, queriers, and a compactor
// concurrently against one server — the zero-downtime claim. Every
// query must succeed (a swap mid-query serves the old snapshot, never
// an error), every write must land exactly once, and the final corpus
// must equal the survivors. CI runs this under -race, where the payoff
// is the absence of data-race reports across the write/query/compact
// triangle.
func TestCompactionUnderLoad(t *testing.T) {
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	p, err := asm.ParseProc(iccStyle)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTarget(p); err != nil {
		t.Fatal(err)
	}
	db, ts := storeServer(t, db, true)

	const writers, perWriter = 4, 8
	var wg sync.WaitGroup
	var queryFails, writeFails atomic.Int64

	for wID := 0; wID < writers; wID++ {
		wg.Add(1)
		go func(wID int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				src := fmt.Sprintf(`proc load_%d_%d
	mov rax, rdi
	imul rax, %d
	add rax, 0x%x
	shr rax, %d
	xor rax, rdi
	ret
endp`, wID, i, 3+2*(wID*perWriter+i), 0x21+wID+i*5, 1+(i%7))
				resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/targets", WriteRequest{Asm: src})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("writer %d add %d: status %d: %s", wID, i, resp.StatusCode, body)
					writeFails.Add(1)
				}
				// Tombstone every fourth write again, so compaction
				// always has remap work.
				if i%4 == 3 {
					name := fmt.Sprintf("load_%d_%d", wID, i)
					resp, body := doJSON(t, http.MethodDelete, ts.URL+"/v1/targets/"+name, nil)
					if resp.StatusCode != http.StatusOK {
						t.Errorf("writer %d delete %s: status %d: %s", wID, name, resp.StatusCode, body)
						writeFails.Add(1)
					}
				}
			}
		}(wID)
	}

	for qID := 0; qID < 2; qID++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle, Method: "esh", Top: 5})
				if resp.StatusCode != http.StatusOK {
					queryFails.Add(1)
				}
			}
		}()
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 6; i++ {
			resp, body := doJSON(t, http.MethodPost, ts.URL+"/v1/compact", nil)
			if resp.StatusCode != http.StatusOK {
				t.Errorf("compact %d: status %d: %s", i, resp.StatusCode, body)
			}
		}
	}()

	wg.Wait()
	if queryFails.Load() > 0 || writeFails.Load() > 0 {
		t.Fatalf("%d queries and %d writes failed under load", queryFails.Load(), writeFails.Load())
	}

	// Fold whatever is left and check the final corpus exactly.
	if _, _, err := db.Compact(nil, nil); err != nil {
		t.Fatal(err)
	}
	wantLive := 1 + writers*perWriter - writers*(perWriter/4)
	if n := db.NumTargets(); n != wantLive {
		t.Fatalf("final corpus has %d targets, want %d", n, wantLive)
	}
	if db.Tombstones() != 0 || db.PendingWrites() != 0 {
		t.Fatalf("final drift: tombstones=%d pending=%d", db.Tombstones(), db.PendingWrites())
	}
	resp := postQuery(t, ts.URL, QueryRequest{Asm: gccStyle, Method: "esh", Top: 5})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("final query: status %d", resp.StatusCode)
	}
}

// TestWriteRepliesOneState: a write reply's generation, wal_seq and
// pending_writes come off one version of the corpus, so they describe a
// state the database was in whatever lands beside the write. With one
// writer every journaled write moves wal_seq and pending_writes together,
// and a compaction zeroes the pending count under a new generation: across
// all replies — adds, deletes and compactions, with a compactor running
// against the writer — wal_seq − pending_writes (the journal position the
// generation was folded at) is a single-valued function of generation. A
// reply assembled from three separate reads breaks it: the old generation
// with the new pending count.
func TestWriteRepliesOneState(t *testing.T) {
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	p, err := asm.ParseProc(iccStyle)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.AddTarget(p); err != nil {
		t.Fatal(err)
	}
	db, ts := storeServer(t, db, true)

	var mu sync.Mutex
	var replies []WriteResponse
	call := func(method, path, asm string) { // also off the test's goroutine: no t.Fatal
		body, _ := json.Marshal(WriteRequest{Asm: asm})
		req, _ := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return
		}
		defer resp.Body.Close()
		var wr WriteResponse
		if err := json.NewDecoder(resp.Body).Decode(&wr); err != nil || resp.StatusCode != http.StatusOK {
			t.Errorf("%s %s: status %d, %v", method, path, resp.StatusCode, err)
			return
		}
		mu.Lock()
		replies = append(replies, wr)
		mu.Unlock()
	}
	done := make(chan struct{})
	var compactor sync.WaitGroup
	compactor.Add(1)
	go func() {
		defer compactor.Done()
		for {
			select {
			case <-done:
				return
			default:
				call(http.MethodPost, "/v1/compact", "")
			}
		}
	}()
	const writes = 48
	for i := 0; i < writes; i++ {
		src := fmt.Sprintf(`proc scripted_%d
	mov rax, rdi
	imul rax, %d
	add rax, 0x%x
	shr rax, %d
	xor rax, rdi
	ret
endp`, i, 3+2*i, 0x21+i*5, 1+(i%7))
		call(http.MethodPost, "/v1/targets", src)
		if i%3 == 2 {
			call(http.MethodDelete, fmt.Sprintf("/v1/targets/scripted_%d", i), "")
		}
	}
	close(done)
	compactor.Wait()

	foldedAt := map[uint64]uint64{} // generation -> wal_seq − pending_writes
	for _, r := range replies {
		at := r.WALSeq - uint64(r.PendingWrites)
		if prev, seen := foldedAt[r.Generation]; seen && prev != at {
			t.Fatalf("generation %d was folded at journal position %d by one reply and %d by another (%+v): a reply mixes two states",
				r.Generation, prev, at, r)
		}
		foldedAt[r.Generation] = at
	}
	if ws := db.WriteState(); ws.WALSeq != writes+writes/3 || len(foldedAt) < 2 {
		t.Fatalf("test premise broken: journal at %d after %d writes, %d generations seen", ws.WALSeq, writes+writes/3, len(foldedAt))
	}
}
