package index

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/wal"
)

// Store owns the files a served corpus lives in: the snapshot and, when
// writable, the write-ahead log. It holds the rule joining them: a snapshot
// records the journal sequence it has folded in (its high-water mark),
// replay applies the records past the mark, starting right after it, and
// the log numbers every new record past the mark.
type Store struct {
	db     *core.DB
	path   string
	log    *wal.Log // nil: read-only
	logger *slog.Logger
	info   atomic.Pointer[Info] // replaced by each compaction
}

// StoreOptions configures OpenStore.
type StoreOptions struct {
	WAL      string         // write-ahead log path; empty opens the snapshot read-only
	Sync     wal.SyncPolicy // the log's fsync policy
	Override Override       // applied to the snapshot's options before the engine is built
	Logger   *slog.Logger   // recovery and compaction lines (default slog.Default)
}

// OpenStore loads the snapshot at path. With a WAL it recovers the log,
// replays it and installs it as the database's journal.
func OpenStore(ctx context.Context, path string, opts StoreOptions) (*Store, error) {
	db, info, err := LoadFileInfoCtx(ctx, path, opts.Override)
	if err != nil {
		return nil, err
	}
	s := &Store{db: db, path: path, logger: cmp.Or(opts.Logger, slog.Default())}
	s.info.Store(&info)
	if opts.WAL == "" {
		return s, nil
	}
	log, recs, err := wal.Open(opts.WAL, wal.Options{Sync: opts.Sync})
	if err != nil {
		return nil, err
	}
	replayed, err := replay(db, recs)
	// A log that ends below the mark (a compaction emptied it) must number
	// on from the mark, not from its own last record.
	if hwm := db.WALSeq(); err == nil && log.Stats().LastSeq < hwm {
		err = log.Rewrite(hwm)
	}
	if err != nil {
		log.Close()
		return nil, err
	}
	db.SetJournal(log)
	s.log = log
	ws := log.Stats()
	s.logger.Info("wal recovered", "path", opts.WAL, "fsync", opts.Sync,
		"records", ws.Replayed, "replayed", replayed, "last_seq", ws.LastSeq,
		"truncated_tail", ws.TruncatedTail, "corrupt", ws.Corrupt)
	return s, nil
}

// Fold replays the log at walPath into db as a restarting daemon would
// (eshcorpus -save -wal) and returns how many records it applied.
func Fold(db *core.DB, walPath string) (int, error) {
	log, recs, err := wal.Open(walPath, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return 0, err
	}
	defer log.Close()
	return replay(db, recs)
}

// replay applies to db, in order, the records past its high-water mark and
// returns how many it applied. The first must be the mark's successor: a
// log that starts later was compacted into a newer snapshot than db's, and
// the writes in between are only in that snapshot.
func replay(db *core.DB, recs []wal.Record) (int, error) {
	hwm, n := db.WALSeq(), 0
	for _, r := range recs {
		if r.Seq <= hwm {
			continue // folded into the snapshot
		}
		if n == 0 && r.Seq != hwm+1 {
			return 0, fmt.Errorf("wal replay: the snapshot's high-water mark is %d but the log resumes at seq %d: records %d..%d were compacted into another snapshot", hwm, r.Seq, hwm+1, r.Seq-1)
		}
		var err error
		switch r.Op {
		case wal.OpAdd:
			var p *asm.Proc
			if p, err = asm.ParseProc(r.Body); err == nil {
				err = db.ReplayAdd(p, r.Seq)
			}
		case wal.OpDelete:
			err = db.ReplayRemove(r.Name, r.Seq)
		}
		if err != nil {
			return n, fmt.Errorf("wal replay seq %d (%s): %w", r.Seq, r.Name, err)
		}
		n++
	}
	return n, nil
}

// DB returns the database the store serves.
func (s *Store) DB() *core.DB { return s.db }

// Writable reports whether the store has a write-ahead log.
func (s *Store) Writable() bool { return s.log != nil }

// Snapshot returns the identity of the snapshot on disk: the one loaded,
// or the last one a compaction wrote.
func (s *Store) Snapshot() Info { return *s.info.Load() }

// WALStats returns the log's statistics, or nil for a read-only store.
func (s *Store) WALStats() *wal.Stats {
	if s.log == nil {
		return nil
	}
	ws := s.log.Stats()
	return &ws
}

// Compact folds the pending writes of a writable store into a new snapshot
// generation: DB.Compact persists it over the snapshot with a durable
// replace, then rewrites the log down to the records it lacks.
func (s *Store) Compact() (gen, hwm uint64, err error) {
	var info Info // zero unless a snapshot was written
	gen, hwm, err = s.db.Compact(func(ex *core.Export) (err error) {
		info, err = SaveExportFile(s.path, ex)
		return err
	}, s.log.Rewrite)
	if info.Checksum != "" {
		s.info.Store(&info)
		s.logger.Info("compacted", "generation", gen, "wal_hwm", hwm, "checksum", info.Checksum, "err", err)
	}
	return gen, hwm, err
}

// Close closes the write-ahead log, if any; the store is not used after.
func (s *Store) Close() error {
	if s.log == nil {
		return nil
	}
	return s.log.Close()
}
