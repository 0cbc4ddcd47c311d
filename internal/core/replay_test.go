package core_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/sketch"
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
	opts := core.WriteTestOptions()
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
	opts := core.WriteTestOptions()
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

// snapshot returns the snapshot bytes of db, as index.SaveExportFile
// would write them.
func snapshot(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := index.SaveExportCtx(context.Background(), &buf, db.Export()); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load rebuilds a database from snapshot bytes.
func load(t *testing.T, snap []byte) *core.DB {
	t.Helper()
	db, _, err := index.LoadInfoCtx(context.Background(), bytes.NewReader(snap), nil)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

// TestReplayMatchesLiveApply: replay grows the corpus in place where the
// live path builds a copy, and both must arrive at the same corpus. A
// script of adds (novel strands among them, so the LSH index is extended)
// and tombstones is applied live through a real WAL onto a loaded
// snapshot — whose arrays are exactly sized, so the first in-place append
// moves them — and the same WAL is folded into a second load of that
// snapshot. The two must save byte-identical snapshots (the extended band
// maps' signatures among them) and answer bit-identically; the "lsh" run
// also checks both corpora's band maps against a fresh build.
func TestReplayMatchesLiveApply(t *testing.T) {
	var base []string
	for i := 100; i < 110; i++ {
		base = append(base, core.GenProc(i))
	}
	ops := append(core.SynthOps(1, 2, 3, 4), core.DelOp("synth_102"), core.DelOp("synth_2"))
	ops = append(ops, append(core.SynthOps(5, 2, 6), core.DelOp("synth_5"), core.DelOp("synth_105"))...)
	for _, mode := range core.WriteModes {
		t.Run(mode, func(t *testing.T) {
			opts := core.WriteTestOptions()
			snap := snapshot(t, core.BuildFresh(t, opts, base))

			walPath := filepath.Join(t.TempDir(), "live.wal")
			log, _, err := wal.Open(walPath, wal.Options{Sync: wal.SyncNone})
			if err != nil {
				t.Fatal(err)
			}
			live := load(t, snap)
			live.SetJournal(log)
			core.ApplyScript(t, live, ops, false)
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}

			rec := load(t, snap)
			if n, err := index.Fold(rec, walPath); err != nil || n != len(ops) {
				t.Fatalf("folded %d records (%v), want %d", n, err, len(ops))
			}
			if g, l := rec.WriteState(), live.WriteState(); g != l {
				t.Errorf("replayed write state %+v, live %+v", g, l)
			}
			if !bytes.Equal(snapshot(t, rec), snapshot(t, live)) {
				t.Error("the replayed corpus saves a different snapshot from the live one")
			}
			if mode == "lsh" {
				core.CheckSketchState(t, "live", live)
				core.CheckSketchState(t, "replayed", rec)
			}
			for _, qsrc := range []string{core.GCCStyle, core.GenProc(4)} {
				q := mustParse(t, qsrc)
				got, err := rec.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := live.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				core.DiffReports(t, "replayed vs live "+q.Name, got, want)
			}
		})
	}
}

// TestLoadedSummariesMatchBuilt: a snapshot load rebuilds each strand's
// summary whole — the persisted signature and the typed input counts —
// and a persisted signature of the wrong length is re-MinHashed into the
// one the strand builds.
func TestLoadedSummariesMatchBuilt(t *testing.T) {
	srcs := []string{core.GCCStyle, core.Unrelated}
	for i := 0; i < 20; i++ {
		srcs = append(srcs, core.GenProc(i))
	}
	sound := core.BuildFresh(t, core.WriteTestOptions(), srcs)
	unsigned := sound.Export()
	for i := range unsigned.Strands {
		unsigned.Strands[i].Sig = nil
	}
	resigned, err := core.FromExport(unsigned)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(sound.Summaries(), func(s sketch.Summary) bool { return s.NMem > 0 }) {
		t.Fatal("no strand has a memory input, so NMem is never compared")
	}
	for _, c := range []struct {
		name   string
		loaded *core.DB
	}{
		{"sound", load(t, snapshot(t, sound))},
		{"sound, signatures re-MinHashed", resigned},
	} {
		built, loaded := sound.Summaries(), c.loaded.Summaries()
		if len(built) != len(loaded) {
			t.Fatalf("%s: %d summaries loaded, %d built", c.name, len(loaded), len(built))
		}
		for j := range built {
			if !reflect.DeepEqual(loaded[j], built[j]) {
				t.Errorf("%s: strand %d loads summary %+v, built %+v", c.name, j, loaded[j], built[j])
			}
		}
	}
}
