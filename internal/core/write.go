package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/asm"
)

// This file is the live write path: durable, crash-safe corpus mutation
// under a serving daemon. Writers (ApplyAdd, ApplyRemove, Replay*, Compact)
// serialize on writeMu; readers take no lock at all. A writer validates,
// journals and builds the successor corpus (corpus.go) while queries keep
// flowing over the current one, then publishes it with one pointer store;
// an in-flight query keeps the version it loaded for its whole lifetime.
//
// Durability is write-ahead: a write is acknowledged only after its
// journal record is on disk (per the journal's fsync policy) AND applied
// in memory. The in-memory apply step is that one store — every fallible
// operation (decompose, prepare, summarize, journal I/O) runs before it —
// so an acknowledged write can never be half-applied.

// Journal is the write-ahead log the DB appends to before applying a
// write in memory. Implemented by *wal.Log; kept as an interface so core
// carries no dependency on the log format and tests can inject failures.
// Both methods return the record's sequence number; on error nothing may
// have been written and the write is not applied.
type Journal interface {
	LogAdd(name, body string) (uint64, error)
	LogRemove(name string) (uint64, error)
}

// ErrDuplicateTarget is returned by ApplyAdd when a live target with the
// same name is already indexed (the server maps it to 409).
var ErrDuplicateTarget = errors.New("core: duplicate target name")

// ErrTargetNotFound is returned by ApplyRemove when no live target has
// the given name (the server maps it to 404).
var ErrTargetNotFound = errors.New("core: target not found")

// ErrJournal wraps write-ahead-log append failures (the server maps it
// to 500: the write was valid but could not be made durable, and was
// not applied).
var ErrJournal = errors.New("core: journal append failed")

// SetJournal installs the write-ahead journal acknowledged writes are
// logged to. A nil journal (the default) makes writes memory-only —
// the replay path and tests use that.
func (db *DB) SetJournal(j Journal) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.journal = j
}

// ApplyAdd indexes one procedure through the live write path: validate
// and prepare, journal, then apply in memory. On any error the corpus is
// unchanged and nothing was acknowledged. Safe to call concurrently with
// Query; concurrent writers serialize.
func (db *DB) ApplyAdd(p *asm.Proc) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyAdd(p, true, 0)
	return err
}

// ReplayAdd re-applies a journaled add during startup replay: identical
// in-memory effect to the ApplyAdd that produced the record, minus the
// journaling. seq becomes the new high-water mark.
func (db *DB) ReplayAdd(p *asm.Proc, seq uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyAdd(p, false, seq)
	return err
}

// ApplyRemove tombstones every live target with the given name and
// returns how many it removed. The targets' strands stay resident until
// the next compaction but stop contributing to candidates, scores and
// the H0 normalisation immediately — post-remove scores are
// bit-identical to a from-scratch rebuild of the surviving corpus.
func (db *DB) ApplyRemove(name string) (int, error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	return db.applyRemove(name, true, 0)
}

// ReplayRemove re-applies a journaled tombstone during startup replay.
func (db *DB) ReplayRemove(name string, seq uint64) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	_, err := db.applyRemove(name, false, seq)
	return err
}

// applyAdd is the shared body of ApplyAdd and ReplayAdd; callers hold
// writeMu. Ordering is the durability argument: (1) reject duplicates,
// (2) run every fallible step (resolve) and build the successor (grown —
// the heavy part, index and table rebuilds included, while queries run on
// the current corpus), (3) journal, (4) publish — step 4 cannot fail, so a
// journaled write is always fully applied before it is acknowledged.
func (db *DB) applyAdd(p *asm.Proc, journal bool, replaySeq uint64) (uint64, error) {
	c := db.corpus.Load()
	for ti, t := range c.targets {
		if t.Name == p.Name && (c.live == nil || c.live[ti]) {
			return 0, fmt.Errorf("%w: %s", ErrDuplicateTarget, p.Name)
		}
	}
	t, news, err := db.resolve(c, p)
	if err != nil {
		return 0, err
	}
	next := db.grown(c, t, news, false)

	seq := replaySeq
	if journal && db.journal != nil {
		seq, err = db.journal.LogAdd(p.Name, p.String())
		if err != nil {
			return 0, fmt.Errorf("%w: add %s: %v", ErrJournal, p.Name, err)
		}
	}
	next.PendingWrites++
	if seq != 0 {
		next.WALSeq = seq
	}
	db.publishAdd(next, news)
	db.mWritesAdd.Inc()
	return seq, nil
}

// applyRemove is the shared body of ApplyRemove and ReplayRemove;
// callers hold writeMu. Same ordering as applyAdd: journal first, then
// an infallible in-memory apply.
func (db *DB) applyRemove(name string, journal bool, replaySeq uint64) (int, error) {
	c := db.corpus.Load()
	var hits []int
	for ti, t := range c.targets {
		if t.Name == name && (c.live == nil || c.live[ti]) {
			hits = append(hits, ti)
		}
	}
	if len(hits) == 0 {
		return 0, fmt.Errorf("%w: %s", ErrTargetNotFound, name)
	}

	seq := replaySeq
	if journal && db.journal != nil {
		var err error
		seq, err = db.journal.LogRemove(name)
		if err != nil {
			return 0, fmt.Errorf("%w: remove %s: %v", ErrJournal, name, err)
		}
	}

	next := c.without(hits)
	next.PendingWrites++
	if seq != 0 {
		next.WALSeq = seq
	}
	db.corpus.Store(next)
	db.mWritesDel.Inc()
	return len(hits), nil
}

// Compact folds the uncompacted writes and tombstones into a new
// snapshot generation: remap the corpus to its rebuild-equivalent
// compacted form, persist it (persist is typically index.SaveExportFile,
// which returns only once the snapshot, its rename and its directory are
// fsynced), publish it, then let cleanup truncate the journal up to the
// persisted high-water mark (typically wal.Log.Rewrite). Queries never block: in-flight ones finish on the
// version they loaded, later ones load the new. Writers stall for the
// duration (writeMu is held throughout, which is also what keeps journal
// appends from racing the truncation).
//
// Crash safety, window by window: before persist's rename the old
// snapshot plus a full journal replay reproduce everything; after the
// rename but before cleanup the new snapshot's recorded high-water mark
// makes startup replay skip the already-folded records. Either way no
// acknowledged write is lost.
//
// Returns the new generation and the folded high-water mark. With
// nothing to compact it returns immediately without bumping the
// generation. A persist error aborts the compaction with the in-memory
// state untouched; a cleanup error is returned but the swap has already
// happened (harmless: stale journal records are skipped on replay).
func (db *DB) Compact(persist func(*Export) error, cleanup func(hwm uint64) error) (gen, hwm uint64, err error) {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()

	c := db.corpus.Load()
	if c.PendingWrites == 0 && c.Tombstones == 0 {
		return c.Generation, c.WALSeq, nil
	}
	start := time.Now()

	next, newIdx := c.compacted()
	next.Generation++
	next.PendingWrites = 0
	next.countsVer++
	gen, hwm = next.Generation, next.WALSeq
	if persist != nil {
		if err := persist(db.export(next)); err != nil {
			return c.Generation, hwm, fmt.Errorf("core: compact: persist: %w", err)
		}
	}

	if newIdx == nil {
		db.corpus.Store(next)
	} else {
		// Everything indexed by strand number is rebuilt over the new
		// numbers, still on the side: the LSH index, the key map, and the
		// cached VCP rows (last, so the window in which a freshly published
		// row misses the carry-over is the row copy alone).
		next.sketchIdx = db.newIndex(next.sums)
		db.byKey = make(map[string]int, len(next.uniq))
		for k, p := range next.uniq {
			db.byKey[p.Key()] = k
		}
		db.installRemapped(db.remappedRows(newIdx, len(next.uniq)), next)
	}

	db.mCompactions.Inc()
	db.hCompact.Observe(time.Since(start).Seconds())
	if cleanup != nil {
		if err := cleanup(hwm); err != nil {
			return gen, hwm, fmt.Errorf("core: compact: journal cleanup (state already swapped): %w", err)
		}
	}
	return gen, hwm, nil
}
