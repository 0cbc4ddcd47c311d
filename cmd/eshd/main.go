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
//	     [-slow-query-threshold 1s]
//	     [-wal corpus.wal] [-fsync always|none]
//	     [-compact-interval 0] [-compact-pending 0]
//
// The engine flag -workers (package engineflags) is applied to the
// snapshot's own options before the engine is built from it; unset, it
// keeps the snapshot's setting.
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
//	GET  /debug/queries     flight recorder: recent queries with their span trees
//	GET  /debug/slow        slow-query log: the records at or past -slow-query-threshold
//	GET  /metrics           Prometheus text-format exposition
//	GET  /healthz           liveness
//	GET  /readyz            readiness (503 while draining)
//
// The snapshot and the -wal log are one index.Store. With -wal, the daemon
// accepts live corpus writes: each accepted write is appended to the log
// before it is applied (with -fsync always, the default, it is fsynced
// too — an acknowledged write survives power loss), and on startup the
// records past the snapshot's high-water mark are replayed. Compaction
// (manual via POST /v1/compact, or automatic via -compact-interval /
// -compact-pending) folds the accumulated writes into a new snapshot
// generation at -index, atomically rewrites the WAL down to its tail, and
// keeps serving queries throughout.
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
	"log/slog"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
	slowThreshold := flag.Duration("slow-query-threshold", time.Second, "queries at or above this duration enter /debug/slow and log a warning (negative = disabled)")
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
	store, err := index.OpenStore(lctx, *indexPath, index.StoreOptions{
		WAL:      *walPath,
		Sync:     wal.SyncPolicy(*fsync),
		Override: engine.Load,
		Logger:   logger,
	})
	loadSpan.End()
	if err != nil {
		fail("%v", err)
	}
	db, info := store.DB(), store.Snapshot()

	st := db.Stats()
	attrs := []any{
		"path", *indexPath,
		"targets", st.Targets,
		"unique_strands", st.UniqueStrands,
		"total_strands", st.TotalStrands,
		"snapshot_version", info.Version,
		"checksum", info.Checksum,
		"load_ms", loadSpan.Duration().Milliseconds(),
	}
	if si := db.Shard(); si.Sharded() {
		attrs = append(attrs, "shard", si.ID, "shard_count", si.Count, "generation", si.Generation)
	}
	logger.Info("index loaded", append(attrs, stepAttrs(loadSpan.Snapshot())...)...)

	server.ServePprof(*pprofAddr, logger)

	srv := server.FromStore(store, server.Config{
		QueryTimeout:       *timeout,
		MaxInFlight:        *maxInflight,
		Logger:             logger,
		SlowQueryThreshold: *slowThreshold,
	})
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	compactor := compactInBackground(ctx, store, *compactInterval, *compactPending, logger)

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
	if compactor != nil {
		<-compactor // a compaction in progress finishes before the log closes
	}
	if err := store.Close(); err != nil {
		logger.Error("wal close", "err", err)
	}
	logger.Info("drained, exiting")
}

// compactInBackground starts the background compactor of a writable
// store: it compacts when writes are pending and interval has passed since
// the last compaction (interval > 0), or as soon as pending writes reach
// pending (pending > 0). The threshold is polled every second so a write
// burst gets folded promptly without a tight loop. It returns nil when
// nothing starts — a read-only store, or both settings 0 — and otherwise a
// channel closed once ctx is done and the compactor has stopped.
func compactInBackground(ctx context.Context, store *index.Store, interval time.Duration, pending int, logger *slog.Logger) <-chan struct{} {
	if !store.Writable() || (interval <= 0 && pending <= 0) {
		return nil
	}
	poll := interval
	if pending > 0 && (poll <= 0 || poll > time.Second) {
		poll = time.Second
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		ticker := time.NewTicker(poll)
		defer ticker.Stop()
		last := time.Now()
		for {
			select {
			case <-ctx.Done():
				return
			case <-ticker.C:
			}
			n := store.DB().PendingWrites()
			if n == 0 {
				continue
			}
			if (interval > 0 && time.Since(last) >= interval) || (pending > 0 && n >= pending) {
				if _, _, err := store.Compact(); err != nil {
					logger.Error("compaction failed", "err", err)
				}
				last = time.Now()
			}
		}
	}()
	return done
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eshd: "+format+"\n", args...)
	os.Exit(1)
}

// stepAttrs splits load_ms into its steps: one "<step>_ms" attribute per
// leaf of the startup span tree, named by the leaf's last dot-separated
// segment — decode and prepare under index.load, and replay (wal.replay)
// when there is a WAL.
func stepAttrs(sd *telemetry.SpanData) []any {
	var attrs []any
	for _, c := range sd.Children {
		if len(c.Children) > 0 {
			attrs = append(attrs, stepAttrs(c)...)
			continue
		}
		attrs = append(attrs, c.Name[strings.LastIndex(c.Name, ".")+1:]+"_ms", c.DurationMS)
	}
	return attrs
}
