package core_test

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/wal"
)

// The crash-recovery bridge: writes journaled to a real WAL are replayed
// the way a restarting daemon replays them (index.Fold, the Store's rule),
// and the recovered engine must answer bit-identically to a fresh index of
// exactly the writes that survived.

func mustParse(t *testing.T, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestCrashRecoveryDifferential journals a write script, then crashes
// at every byte-boundary of interest: the WAL is cut (or garbled) at
// each record boundary and mid-record, recovered, replayed into a fresh
// engine, and the recovered engine's Query must be bit-identical to a
// from-scratch index of exactly the surviving prefix's targets. This is
// the acceptance claim: an acknowledged write either survives whole or
// the tail is dropped cleanly — never a half-applied corpus.
func TestCrashRecoveryDifferential(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "crash.wal")
	log, recs, err := wal.Open(walPath, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("fresh WAL replayed %d records", len(recs))
	}

	ops := append(append(core.SynthOps(1, 2, 3), core.DelOp("synth_2")), append(core.SynthOps(4), core.DelOp("synth_1"))...)
	opts := core.WriteTestOptions("scan")
	db := core.NewDB(opts)
	db.SetJournal(log)
	var bounds []int64 // file size after each journaled record
	for i := range ops {
		core.ApplyScript(t, db, ops[i:i+1], false)
		bounds = append(bounds, log.Stats().Bytes)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	full, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(full)) != bounds[len(bounds)-1] {
		t.Fatalf("WAL is %d bytes, last record ends at %d", len(full), bounds[len(bounds)-1])
	}

	// Cut points: every record boundary, and three bytes past each (a
	// torn mid-record tail). A garble run flips a byte in the tail
	// record instead of cutting.
	check := func(t *testing.T, data []byte, nSurvive int) {
		p := filepath.Join(t.TempDir(), "recovered.wal")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec := core.NewDB(opts)
		n, err := index.Fold(rec, p)
		if err != nil {
			t.Fatal(err)
		}
		if n != nSurvive {
			t.Fatalf("replayed %d records, want %d", n, nSurvive)
		}
		if rec.WALSeq() != uint64(nSurvive) {
			t.Fatalf("replayed high-water mark %d, want %d", rec.WALSeq(), nSurvive)
		}
		fresh := core.BuildFresh(t, opts, core.Survivors(t, ops[:nSurvive]))
		for _, qsrc := range []string{core.GCCStyle, core.GenProc(4)} {
			q := mustParse(t, qsrc)
			got, err := rec.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := fresh.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			core.DiffReports(t, "post-recovery "+q.Name, got, want)
		}
	}

	for k := 0; k <= len(bounds); k++ {
		cut := int64(0)
		if k > 0 {
			cut = bounds[k-1]
		}
		t.Run(fmt.Sprintf("cut-at-record-%d", k), func(t *testing.T) {
			check(t, full[:cut], k)
		})
		if cut < int64(len(full)) {
			t.Run(fmt.Sprintf("torn-after-record-%d", k), func(t *testing.T) {
				// A torn write 3 bytes into the next record: the tail
				// frame is incomplete, so exactly k records survive.
				check(t, full[:min(cut+3, int64(len(full)))], k)
			})
			t.Run(fmt.Sprintf("garbled-record-%d", k), func(t *testing.T) {
				// Flip a byte inside record k+1's frame: CRC rejects it
				// and everything after it, so k records survive.
				data := append([]byte(nil), full...)
				data[cut+5] ^= 0x40
				check(t, data, k)
			})
		}
	}
}

// TestCompactPersistCrash simulates SIGKILL during compaction: if the
// persist callback fails (the snapshot never lands), the engine keeps
// serving the old generation and the WAL is untouched, so a restart
// replays every acknowledged write.
func TestCompactPersistCrash(t *testing.T) {
	walPath := filepath.Join(t.TempDir(), "c.wal")
	log, _, err := wal.Open(walPath, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	opts := core.WriteTestOptions("scan")
	db := core.NewDB(opts)
	db.SetJournal(log)
	core.ApplyScript(t, db, append(core.SynthOps(1, 2, 3), core.DelOp("synth_2")), false)

	boom := errors.New("disk full")
	if _, _, err := db.Compact(func(*core.Export) error { return boom }, nil); err == nil {
		t.Fatal("compact with failing persist did not error")
	}
	if db.DataGeneration() != 0 || db.PendingWrites() != 4 || db.Tombstones() != 1 {
		t.Fatalf("failed compaction mutated state: gen=%d pending=%d tombstones=%d",
			db.DataGeneration(), db.PendingWrites(), db.Tombstones())
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// "Restart": replay the WAL into a fresh engine.
	rec := core.NewDB(opts)
	if n, err := index.Fold(rec, walPath); err != nil || n != 4 {
		t.Fatalf("restart replayed %d records (%v), want 4", n, err)
	}
	q := mustParse(t, core.GCCStyle)
	got, err := rec.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	core.DiffReports(t, "post-restart", got, want)
}
