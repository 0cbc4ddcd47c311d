package index

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/wal"
)

var quiet = slog.New(slog.NewTextHandler(io.Discard, nil))

// liveProc is gccStyle under another name: a target no snapshot holds.
func liveProc(t *testing.T, name string) *asm.Proc {
	t.Helper()
	return parse(t, strings.Replace(gccStyle, "checksum_gcc", name, 1))
}

// storeFiles saves buildDB's corpus as a snapshot in a fresh directory and
// returns its path and a WAL path beside it.
func storeFiles(t *testing.T) (snap, log string) {
	t.Helper()
	dir := t.TempDir()
	snap = filepath.Join(dir, "s.eshidx")
	if err := SaveFile(snap, buildDB(t)); err != nil {
		t.Fatal(err)
	}
	return snap, filepath.Join(dir, "s.wal")
}

func openStore(t *testing.T, snap, log string) *Store {
	t.Helper()
	st, err := OpenStore(context.Background(), snap, StoreOptions{WAL: log, Sync: wal.SyncNone, Logger: quiet})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func hasTarget(st *Store, name string) bool {
	for _, tg := range st.DB().LiveTargets() {
		if tg.Name == name {
			return true
		}
	}
	return false
}

// TestStoreNumbersPastCompactedLog: a compaction whose high-water mark
// covers every record leaves an empty log, and a log that says nothing
// about where its numbering stood must not start again at 1 — the next
// restart would skip that record as folded and lose an acknowledged write.
// open → add → compact → close → open → add → close without compacting →
// open: the second add survives under sequence 2.
func TestStoreNumbersPastCompactedLog(t *testing.T) {
	snap, log := storeFiles(t)
	st := openStore(t, snap, log)
	if err := st.DB().ApplyAdd(liveProc(t, "live_a")); err != nil {
		t.Fatal(err)
	}
	if gen, hwm, err := st.Compact(); err != nil || gen != 1 || hwm != 1 {
		t.Fatalf("compact = (%d, %d, %v), want (1, 1, nil)", gen, hwm, err)
	}
	if ws := st.WALStats(); ws.Bytes != 0 {
		t.Fatalf("the compacted log holds %d bytes, want 0", ws.Bytes)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, snap, log)
	if err := st.DB().ApplyAdd(liveProc(t, "live_b")); err != nil {
		t.Fatal(err)
	}
	if seq := st.DB().WALSeq(); seq != 2 {
		t.Fatalf("the add after a restart on an empty log was journaled as seq %d, want 2", seq)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, snap, log)
	defer st.Close()
	if !hasTarget(st, "live_a") || !hasTarget(st, "live_b") {
		t.Fatalf("after the restart live_a=%v live_b=%v, want both", hasTarget(st, "live_a"), hasTarget(st, "live_b"))
	}
	if seq := st.DB().WALSeq(); seq != 2 {
		t.Fatalf("WALSeq after replay = %d, want 2", seq)
	}
}

// TestReplayRefusesGap: a log compacted into one snapshot, then written
// to, starts past that snapshot's mark. Replayed onto an older snapshot —
// offline by eshcorpus -save -wal (Fold over a freshly built corpus) or
// by a daemon restarted on a pre-compaction snapshot — it would drop the
// compacted writes without a word. Both must refuse, naming the mark and
// the record the log resumes at.
func TestReplayRefusesGap(t *testing.T) {
	snap, log := storeFiles(t)
	before := filepath.Join(filepath.Dir(snap), "before.eshidx")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(before, data, 0o644); err != nil {
		t.Fatal(err)
	}
	st := openStore(t, snap, log)
	if err := st.DB().ApplyAdd(liveProc(t, "live_a")); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.DB().ApplyAdd(liveProc(t, "live_b")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		open func() error
	}{
		{"fold", func() error {
			_, err := Fold(buildDB(t), log)
			return err
		}},
		{"open", func() error {
			st, err := OpenStore(context.Background(), before, StoreOptions{WAL: log, Sync: wal.SyncNone, Logger: quiet})
			if err == nil {
				st.Close()
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.open()
			if err == nil {
				t.Fatal("replay across the gap succeeded")
			}
			for _, want := range []string{"high-water mark is 0", "resumes at seq 2"} {
				if !strings.Contains(err.Error(), want) {
					t.Fatalf("error %q does not say %q", err, want)
				}
			}
		})
	}

	// The snapshot the log was compacted into replays it.
	st = openStore(t, snap, log)
	defer st.Close()
	if !hasTarget(st, "live_a") || !hasTarget(st, "live_b") {
		t.Fatal("the post-compaction snapshot and its log lost a write")
	}
}

// TestReplayRefusedAfterJournal: replay grows the corpus in place, which
// is safe only while nothing can read it. OpenStore replays before it
// installs the journal, and once a journal is installed the database may
// be served, so both replay methods refuse and leave the corpus as it was.
func TestReplayRefusedAfterJournal(t *testing.T) {
	snap, log := storeFiles(t)
	st := openStore(t, snap, log)
	if err := st.DB().ApplyAdd(liveProc(t, "live_a")); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st = openStore(t, snap, log) // replays live_a, then journals
	defer st.Close()
	db := st.DB()
	before := db.WriteState()
	if err := db.ReplayAdd(liveProc(t, "live_b"), 2); err == nil {
		t.Error("ReplayAdd on a journaled database succeeded")
	}
	if err := db.ReplayRemove("live_a", 2); err == nil {
		t.Error("ReplayRemove on a journaled database succeeded")
	}
	if ws := db.WriteState(); ws != before || !hasTarget(st, "live_a") || hasTarget(st, "live_b") {
		t.Errorf("refused replays changed the corpus: write state %+v (was %+v), live_a=%v live_b=%v",
			ws, before, hasTarget(st, "live_a"), hasTarget(st, "live_b"))
	}
}

// TestRacingCompactionsServeDiskIdentity: Snapshot is the identity eshd
// serves in /v1/stats and stamps on every partial frame, so it must name
// the file on disk. Two compactions with a write between them race in
// each round; afterwards Snapshot must equal the file's checksum. A
// poller meanwhile holds the identity to the corpus it describes: once
// DataGeneration reads G, Snapshot must not name an older generation's
// file — which it did while a compaction rewrote the log, when the
// identity was published only after the writer lock was released.
func TestRacingCompactionsServeDiskIdentity(t *testing.T) {
	snap, log := storeFiles(t)
	st := openStore(t, snap, log)
	defer st.Close()
	diskSum := func() string {
		t.Helper()
		f, err := os.Open(snap)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		_, info, err := LoadExportInfo(f)
		if err != nil {
			t.Fatal(err)
		}
		return info.Checksum
	}
	// genOf maps each round's last snapshot to its generation; the poller's
	// readings are checked against it once every round is over.
	genOf := map[string]uint64{diskSum(): 0}
	type reading struct {
		gen uint64
		sum string
	}
	var readings []reading
	done := make(chan struct{})
	var poller sync.WaitGroup
	poller.Add(1)
	go func() {
		defer poller.Done()
		for {
			select {
			case <-done:
				return
			case <-time.After(50 * time.Microsecond):
			}
			gen := st.DB().DataGeneration()
			readings = append(readings, reading{gen, st.Snapshot().Checksum})
		}
	}()

	const rounds = 20
	for round := 0; round < rounds; round++ {
		var wg sync.WaitGroup
		for g := 0; g < 2; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				if err := st.DB().ApplyAdd(liveProc(t, fmt.Sprintf("live_%d_%d", round, g))); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := st.Compact(); err != nil {
					t.Error(err)
				}
			}(g)
		}
		wg.Wait()
		got, want := st.Snapshot().Checksum, diskSum()
		if got != want {
			t.Fatalf("round %d: the store serves snapshot %s, the file on disk is %s", round, got, want)
		}
		genOf[want] = st.DB().DataGeneration()
	}
	close(done)
	poller.Wait()

	if gen := st.DB().DataGeneration(); gen < rounds {
		t.Fatalf("%d rounds reached generation %d: the compactions did not all write", rounds, gen)
	}
	for _, r := range readings {
		if g, ok := genOf[r.sum]; ok && g < r.gen {
			t.Fatalf("at data generation %d the store served generation %d's snapshot %s", r.gen, g, r.sum)
		}
	}
}
