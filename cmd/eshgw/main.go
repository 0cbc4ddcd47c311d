// Command eshgw is the cluster coordinator: it loads a shard manifest
// written by eshcorpus -save-shards, fans each query out to one replica
// of every eshd shard, and merges the partial scores into results
// bit-identical to a single eshd serving the whole corpus.
//
// Usage:
//
//	eshgw -manifest corpus.eshidx.manifest \
//	      -shards "http://h0:8710,http://h0b:8710;http://h1:8710" \
//	      [-addr :8720] [-timeout 60s] [-hedge-after 300ms]
//	      [-retries 2] [-retry-backoff 100ms] [-probe-interval 2s]
//	      [-scrape-interval 15s] [-slow-query-threshold 1s]
//	      [-allow-degraded] [-log-format text|json]
//	      [-pprof-addr 127.0.0.1:6061]
//
// -shards lists replica base URLs per shard: ';' separates shards (in
// shard-ID order, one group per manifest shard), ',' separates replicas
// of one shard. Extra replicas enable hedging (a duplicate request
// races the straggler after -hedge-after) and retries. A shard gets one
// attempt per replica plus -retries more after failures: -retries 0
// retries nothing, and a negative value is refused at startup.
//
// Every shard answer carries its identity — shard coordinates, fleet
// generation, snapshot checksum, sigmoid k, the heuristic-tier threshold,
// live-write drift — and one rule (shard.Manifest.CheckShard) judges it
// against the manifest: on every query, where a mismatch fails the query
// with a 500, and at startup over every replica's /v1/stats, where it
// refuses to start (merged scores would be silently wrong) unless
// -allow-degraded is set. Both report the same message.
//
// Endpoints:
//
//	POST /v1/query      same schema as eshd; responses add "partial" and
//	                    "missing_shards" when a shard was unreachable.
//	                    ?trace=1 returns the fan-out tree with each
//	                    shard's server-side trace grafted in.
//	GET  /v1/stats      fleet health, hedge/retry counters, latency
//	GET  /v1/fleet      JSON fleet view: readiness, per-shard p99, scrapes
//	GET  /debug/queries flight recorder: recent fan-outs with shard legs
//	GET  /debug/slow    slow-query log: full fan-out span trees
//	GET  /metrics       federated exposition: gateway series plus each
//	                    shard's scraped series re-labeled shard="<id>"
//	GET  /healthz       liveness
//	GET  /readyz        readiness: every shard has a ready replica
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/gateway"
	"repro/internal/server"
	"repro/internal/shard"
)

func main() {
	manifestPath := flag.String("manifest", "", "shard manifest to coordinate (required; written by eshcorpus -save-shards)")
	shardsFlag := flag.String("shards", "", "replica base URLs per shard: ';' between shards, ',' between replicas (required)")
	addr := flag.String("addr", ":8720", "listen address")
	timeout := flag.Duration("timeout", 60*time.Second, "per-query fan-out timeout")
	hedgeAfter := flag.Duration("hedge-after", 300*time.Millisecond, "per-shard latency budget before hedging onto another replica")
	retries := flag.Int("retries", 2, "extra attempts per shard after failures")
	backoff := flag.Duration("retry-backoff", 100*time.Millisecond, "base wait before a retry (scales linearly)")
	probeInterval := flag.Duration("probe-interval", 2*time.Second, "/readyz polling period")
	maxInflight := flag.Int("max-inflight", 0, "max concurrent fan-outs (0 = 16)")
	allowDegraded := flag.Bool("allow-degraded", false, "start even when fleet verification fails or replicas are unreachable")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty = disabled)")
	scrapeInterval := flag.Duration("scrape-interval", 15*time.Second, "metrics-federation scrape period for shard /metrics pages")
	slowThreshold := flag.Duration("slow-query-threshold", time.Second, "fan-outs at or above this duration keep their span tree in /debug/slow (negative = disabled)")
	flag.Parse()

	logger, err := server.NewLogger(*logFormat)
	if err != nil {
		fail("%v", err)
	}
	if *manifestPath == "" {
		fail("pass -manifest corpus.eshidx.manifest (create one with: eshcorpus -save corpus.eshidx -save-shards N)")
	}
	if *shardsFlag == "" {
		fail("pass -shards \"http://h0:8710;http://h1:8710\" (';' between shards, ',' between replicas)")
	}

	man, err := shard.LoadManifest(*manifestPath)
	if err != nil {
		fail("%v", err)
	}
	var replicas [][]string
	for _, group := range strings.Split(*shardsFlag, ";") {
		var reps []string
		for _, u := range strings.Split(group, ",") {
			if u = strings.TrimSpace(u); u != "" {
				reps = append(reps, u)
			}
		}
		replicas = append(replicas, reps)
	}

	gw, err := gateway.New(gateway.Config{
		Manifest:           man,
		Shards:             replicas,
		QueryTimeout:       *timeout,
		HedgeAfter:         *hedgeAfter,
		MaxRetries:         *retries,
		RetryBackoff:       *backoff,
		ProbeInterval:      *probeInterval,
		MaxInFlight:        *maxInflight,
		Logger:             logger,
		ScrapeInterval:     *scrapeInterval,
		SlowQueryThreshold: *slowThreshold,
	})
	if err != nil {
		fail("%v", err)
	}

	server.ServePprof(*pprofAddr, logger)

	// Verify the fleet before serving: a replica with the wrong
	// snapshot would merge into silently wrong scores.
	vctx, vcancel := context.WithTimeout(context.Background(), 10*time.Second)
	errs := gw.CheckFleet(vctx)
	vcancel()
	for _, e := range errs {
		logger.Error("fleet verification failed", "err", e.Error())
	}
	if len(errs) > 0 && !*allowDegraded {
		fail("%d fleet verification error(s); fix the fleet or pass -allow-degraded", len(errs))
	}
	logger.Info("fleet verified",
		"manifest", *manifestPath,
		"generation", man.Generation,
		"shards", len(man.Shards),
		"targets", man.NumTargets,
		"errors", len(errs),
	)

	gw.StartProber()
	defer gw.StopProber()

	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           gw.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Info("serving", "addr", *addr)

	select {
	case err := <-errCh:
		fail("serve: %v", err)
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Error("shutdown incomplete", "err", err)
		os.Exit(1)
	}
	logger.Info("drained, exiting")
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eshgw: "+format+"\n", args...)
	os.Exit(1)
}
