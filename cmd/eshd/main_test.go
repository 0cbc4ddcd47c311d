package main

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// TestStepAttrs: the "index loaded" line names every step of startup, the
// replay beside the snapshot load's decode and prepare, not only the steps
// of a lone child.
func TestStepAttrs(t *testing.T) {
	ctx, root := telemetry.StartSpan(context.Background(), "startup")
	lctx, load := telemetry.StartSpan(ctx, "index.load")
	for _, name := range []string{"decode", "prepare"} {
		_, sp := telemetry.StartSpan(lctx, name)
		sp.End()
	}
	load.End()
	_, rp := telemetry.StartSpan(ctx, "wal.replay")
	rp.End()
	root.End()

	var keys []string
	attrs := stepAttrs(root.Snapshot())
	for i := 0; i < len(attrs); i += 2 {
		keys = append(keys, attrs[i].(string))
	}
	if got, want := fmt.Sprint(keys), "[decode_ms prepare_ms replay_ms]"; got != want {
		t.Errorf("startup attributes %s, want %s", got, want)
	}
}

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// writableStore saves a one-target snapshot in a fresh directory and opens
// it with a write-ahead log beside it.
func writableStore(t *testing.T) *index.Store {
	t.Helper()
	tc, _ := compile.ByName("gcc-4.9")
	p, err := corpus.CompileVuln(corpus.Vulns()[0], tc, false)
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB(core.Options{})
	if err := db.AddTarget(p); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "s.eshidx")
	if err := index.SaveFile(snap, db); err != nil {
		t.Fatal(err)
	}
	st, err := index.OpenStore(context.Background(), snap, index.StoreOptions{
		WAL: filepath.Join(dir, "s.wal"), Sync: wal.SyncNone, Logger: quiet,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// TestCompactorFoldsPendingWrites: with -compact-pending 1 one write is
// enough. Within a few polls the compactor folds it into generation 1,
// leaves nothing pending and rewrites the log to empty; cancelling its
// context stops it.
func TestCompactorFoldsPendingWrites(t *testing.T) {
	st := writableStore(t)
	tc, _ := compile.ByName("clang-3.5")
	p, err := corpus.CompileVuln(corpus.Vulns()[1], tc, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.DB().ApplyAdd(p); err != nil {
		t.Fatal(err)
	}
	if ws := st.WALStats(); ws.Bytes == 0 {
		t.Fatal("the write left the log empty")
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := compactInBackground(ctx, st, 0, 1, quiet)
	if done == nil {
		t.Fatal("compact-pending 1 started no compactor")
	}
	deadline := time.Now().Add(10 * time.Second)
	for st.DB().DataGeneration() == 0 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	cancel()
	<-done
	ws := st.DB().WriteState()
	if ws.Generation != 1 || ws.PendingWrites != 0 {
		t.Fatalf("after the compactor: generation %d, %d pending; want 1, 0", ws.Generation, ws.PendingWrites)
	}
	if b := st.WALStats().Bytes; b != 0 {
		t.Fatalf("the compacted log holds %d bytes, want 0", b)
	}
}

// TestCompactorOffByDefault: with -compact-interval 0 and -compact-pending
// 0, the defaults, no compactor starts, whatever is pending.
func TestCompactorOffByDefault(t *testing.T) {
	if done := compactInBackground(context.Background(), writableStore(t), 0, 0, quiet); done != nil {
		t.Fatal("both settings 0 started a compactor")
	}
}
