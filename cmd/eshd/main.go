// Command eshd is the query-serving daemon: it loads a strand index
// snapshot produced by eshcorpus -save (or esh -save-like tooling) and
// answers similarity queries over HTTP, so a corpus is indexed once and
// served many times.
//
// Usage:
//
//	eshd -index corpus.eshidx [-addr :8710] [-timeout 60s]
//	     [-max-inflight 16] [-workers 0] [-drain 30s]
//	     [-log-format text|json] [-pprof-addr 127.0.0.1:6060]
//	     [-slow-query-threshold 1s] [-recorder-size 512]
//	     [-wal corpus.wal] [-fsync always|none]
//	     [-compact-interval 0] [-compact-pending 0]
//	     [-lsh-bands 0] [-lsh-rows 0] [-lsh-min-containment 0]
//	     [-retrieval scan|probe]
//
// The engine flags (the last two lines and -workers; package
// engineflags) are applied to the snapshot's own options before the
// engine is built from it; an unset flag keeps the snapshot's setting.
// -retrieval is the heuristic tier's setting: at -lsh-min-containment 0
// the engine scans whatever it says, and no probe table is built.
//
// Endpoints:
//
//	POST /v1/query          {"asm": "...", "method": "esh|slog", "top": 20}
//	                        append ?trace=1 for a per-stage timing breakdown
//	POST /v1/query/partial  shard-local partial scores for an eshgw coordinator: same body as
//	                        /v1/query, 200-reply is a binary shard.Frame (errors stay JSON)
//	GET  /v1/targets        indexed procedures with provenance
//	POST /v1/targets        index new procedures live (requires -wal)
//	DELETE /v1/targets/{name}  tombstone a target (requires -wal)
//	POST /v1/compact        fold WAL + tombstones into a new snapshot generation
//	GET  /v1/stats          index size, snapshot identity, query counters, latency
//	GET  /debug/queries     flight recorder: recent queries with stage timings
//	GET  /debug/slow        slow-query log: full span trees, no ?trace=1 needed
//	GET  /metrics           Prometheus text-format exposition
//	GET  /healthz           liveness
//	GET  /readyz            readiness (503 while draining)
//
// With -wal, the daemon accepts live corpus writes: each accepted write
// is appended to the write-ahead log before it is applied (with -fsync
// always, the default, it is fsynced too — an acknowledged write
// survives power loss), and on startup any WAL records newer than the
// snapshot's high-water mark are replayed. Compaction (manual via POST
// /v1/compact, or automatic via -compact-interval / -compact-pending)
// folds the accumulated writes into a new snapshot generation at
// -index, atomically rewrites the WAL down to its tail, and keeps
// serving queries throughout.
//
// With -pprof-addr, net/http/pprof profiling endpoints are served on a
// separate (normally loopback-only) listener, so profiles are never
// exposed on the query port.
//
// On SIGINT/SIGTERM the daemon stops accepting connections and drains
// in-flight queries (up to -drain) before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/engineflags"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

func main() {
	indexPath := flag.String("index", "", "strand index snapshot to serve (required)")
	addr := flag.String("addr", ":8710", "listen address")
	timeout := flag.Duration("timeout", 60*time.Second, "per-query timeout")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent queries (0 = 2×GOMAXPROCS)")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain window")
	notice := flag.Duration("ready-notice", 0, "hold /readyz at 503 this long before closing the listener, so pollers route away first")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	slowThreshold := flag.Duration("slow-query-threshold", time.Second, "queries at or above this duration keep their span tree in /debug/slow (negative = disabled)")
	recorderSize := flag.Int("recorder-size", 0, "flight-recorder ring size (0 = default 512)")
	engine := engineflags.Register(flag.CommandLine, engineflags.Query)
	walPath := flag.String("wal", "", "write-ahead log path; enables the live write endpoints (empty = read-only serving)")
	fsync := flag.String("fsync", "always", "WAL fsync policy: always (acknowledged writes survive power loss) or none (survive process crash only)")
	compactInterval := flag.Duration("compact-interval", 0, "with -wal: compact this often when writes are pending (0 = no timer)")
	compactPending := flag.Int("compact-pending", 0, "with -wal: compact as soon as this many writes are pending (0 = no threshold)")
	flag.Parse()

	logger, err := server.NewLogger(*logFormat)
	if err != nil {
		fail("%v", err)
	}
	if *indexPath == "" {
		fail("pass -index snapshot.eshidx (create one with: eshcorpus -save snapshot.eshidx)")
	}

	lctx, loadSpan := telemetry.StartSpan(context.Background(), "startup")
	db, info, err := index.LoadFileInfoCtx(lctx, *indexPath, engine.Load)
	loadSpan.End()
	if err != nil {
		fail("%v", err)
	}
	// With -wal, recover the log, replay any records newer than the
	// snapshot's high-water mark, and journal all future writes.
	var wlog *walLog
	if *walPath != "" {
		switch wal.SyncPolicy(*fsync) {
		case wal.SyncAlways, wal.SyncNone:
		default:
			fail("unknown -fsync %q (always, none)", *fsync)
		}
		log, recs, err := wal.Open(*walPath, wal.Options{Sync: wal.SyncPolicy(*fsync)})
		if err != nil {
			fail("wal: %v", err)
		}
		replayed := 0
		for _, r := range recs {
			if r.Seq <= db.WALSeq() {
				continue // already folded into the snapshot
			}
			switch r.Op {
			case wal.OpAdd:
				p, err := asm.ParseProc(r.Body)
				if err != nil {
					fail("wal replay seq %d: parse %s: %v", r.Seq, r.Name, err)
				}
				if err := db.ReplayAdd(p, r.Seq); err != nil {
					fail("wal replay seq %d: add %s: %v", r.Seq, r.Name, err)
				}
			case wal.OpDelete:
				if err := db.ReplayRemove(r.Name, r.Seq); err != nil {
					fail("wal replay seq %d: delete %s: %v", r.Seq, r.Name, err)
				}
			}
			replayed++
		}
		wlog = &walLog{log: log}
		db.SetJournal(wlog)
		ws := wlog.Stats()
		logger.Info("wal recovered", "path", *walPath, "fsync", *fsync,
			"records", ws.Replayed, "replayed", replayed, "last_seq", ws.LastSeq,
			"truncated_tail", ws.TruncatedTail, "corrupt", ws.Corrupt)
	}

	st := db.Stats()
	attrs := []any{
		"path", *indexPath,
		"targets", st.Targets,
		"unique_strands", st.UniqueStrands,
		"total_strands", st.TotalStrands,
		"lsh_bands", st.LSHBands,
		"lsh_rows", st.LSHRows,
		"lsh_min_containment", st.LSHMinContainment,
		"retrieval", st.Retrieval,
		"snapshot_version", info.Version,
		"checksum", info.Checksum,
		"load_ms", loadSpan.Duration().Milliseconds(),
	}
	if si := db.Shard(); si.Sharded() {
		attrs = append(attrs, "shard", si.ID, "shard_count", si.Count, "generation", si.Generation)
	}
	// The index.load child span carries the decode/prepare split.
	if snap := loadSpan.Snapshot(); len(snap.Children) == 1 {
		for _, c := range snap.Children[0].Children {
			attrs = append(attrs, c.Name+"_ms", c.DurationMS)
		}
	}
	logger.Info("index loaded", attrs...)
	if st.Retrieval == core.RetrievalProbe && st.LSHMinContainment == 0 {
		logger.Info("retrieval=probe has no effect at -lsh-min-containment 0: the sound tier scans and builds no probe table")
	}

	server.ServePprof(*pprofAddr, logger)

	// The compact hook persists the folded corpus over -index (atomic
	// temp+rename), swaps it live, then rewrites the WAL down to its
	// tail. It closes over srv (assigned just below) so /v1/stats
	// reports the new snapshot identity; compaction can only be invoked
	// once the server is up.
	var srv *server.Server
	var compact func() (uint64, uint64, error)
	if wlog != nil {
		compact = func() (uint64, uint64, error) {
			var newInfo index.Info
			persisted := false
			gen, hwm, err := db.Compact(func(ex *core.Export) error {
				inf, perr := index.SaveExportFile(*indexPath, ex)
				if perr != nil {
					return perr
				}
				newInfo, persisted = inf, true
				return nil
			}, wlog.Rewrite)
			if persisted {
				srv.SetSnapshotInfo(newInfo)
				logger.Info("compacted", "generation", gen, "wal_hwm", hwm,
					"checksum", newInfo.Checksum, "err", err)
			}
			return gen, hwm, err
		}
	}

	cfg := server.Config{
		QueryTimeout:       *timeout,
		MaxInFlight:        *maxInflight,
		Logger:             logger,
		Snapshot:           info,
		SlowQueryThreshold: *slowThreshold,
		RecorderSize:       *recorderSize,
		EnableWrites:       wlog != nil,
		Compact:            compact,
	}
	if wlog != nil {
		cfg.WALStats = wlog.Stats
	}
	srv = server.New(db, cfg)
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Background compactor: on a timer, by pending-write threshold, or
	// both. The threshold is polled every second so a write burst gets
	// folded promptly without a tight loop.
	if compact != nil && (*compactInterval > 0 || *compactPending > 0) {
		go func() {
			poll := *compactInterval
			if *compactPending > 0 && (poll <= 0 || poll > time.Second) {
				poll = time.Second
			}
			ticker := time.NewTicker(poll)
			defer ticker.Stop()
			last := time.Now()
			for {
				select {
				case <-ctx.Done():
					return
				case <-ticker.C:
				}
				pending := db.PendingWrites()
				if pending == 0 {
					continue
				}
				due := *compactInterval > 0 && time.Since(last) >= *compactInterval
				if *compactPending > 0 && pending >= *compactPending {
					due = true
				}
				if !due {
					continue
				}
				if _, _, err := compact(); err != nil {
					logger.Error("compaction failed", "err", err)
				}
				last = time.Now()
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errCh:
		fail("serve: %v", err)
	case <-ctx.Done():
	}

	// Drain: flip /readyz to 503 first so the gateway and load
	// balancers route around this replica, give their probes a moment
	// to notice, then stop accepting and let in-flight queries finish.
	srv.SetReady(false)
	logger.Info("shutting down", "drain", (*drain).String(), "ready_notice", (*notice).String())
	if *notice > 0 {
		time.Sleep(*notice)
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	if wlog != nil {
		if err := wlog.Close(); err != nil {
			logger.Error("wal close", "err", err)
		}
	}
	logger.Info("drained, exiting")
}

// walLog adapts *wal.Log to core.Journal and serializes it: the engine
// already serializes journal appends and the compaction rewrite behind
// its write lock, but /v1/stats reads Stats concurrently, so the
// adapter owns one mutex for all four.
type walLog struct {
	mu  sync.Mutex
	log *wal.Log
}

func (w *walLog) LogAdd(name, body string) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Append(wal.OpAdd, name, body)
}

func (w *walLog) LogRemove(name string) (uint64, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Append(wal.OpDelete, name, "")
}

func (w *walLog) Rewrite(hwm uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Rewrite(hwm)
}

func (w *walLog) Stats() wal.Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Stats()
}

func (w *walLog) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.log.Close()
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eshd: "+format+"\n", args...)
	os.Exit(1)
}
