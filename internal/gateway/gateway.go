// Package gateway implements the eshgw scatter-gather coordinator: it
// owns a shard manifest, fans each query out to one replica of every
// shard's /v1/query/partial, and merges the partials into scores
// bit-identical to a single node holding the whole corpus (see
// shard.Merge for the exactness argument).
//
// The fan-out is latency-engineered in the classic tail-at-scale
// shape: each shard's request is hedged — if the first replica has not
// answered within the hedge budget, a second request races it on
// another replica and the first success wins — and failures are
// retried with backoff against the remaining replicas. A background
// prober polls every replica's /readyz so draining or dead replicas
// are deprioritized before a query ever waits on them. A leg is judged
// where it lands, by one rule: a reply that is not a frame of this
// build's wire version, or that answers as another slot, fleet size or
// generation (shard.Manifest.CheckShard), is a failed attempt like a 5xx.
// When a shard has no good replica the gateway degrades instead of
// failing: it merges what it has and flags the response partial with the
// missing shard IDs.
package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// Config tunes the gateway. Zero values select the documented defaults.
type Config struct {
	// Manifest describes the fleet this gateway coordinates (required).
	Manifest *shard.Manifest
	// Shards[i] lists the base URLs ("http://host:port") of the
	// replicas serving shard i. Every shard needs at least one replica;
	// extra replicas enable hedging and retries (required).
	Shards [][]string
	// QueryTimeout bounds one fan-out end to end (default 60s). A shard
	// that misses it is treated as down for this query.
	QueryTimeout time.Duration
	// HedgeAfter is the per-shard latency budget before a hedge request
	// is launched on the next replica (default 300ms). Hedging needs a
	// second replica; with one replica per shard it never triggers.
	HedgeAfter time.Duration
	// MaxRetries bounds extra attempts per shard after a failed request:
	// 0 (the zero value) means none, a negative value is refused by New.
	// Hedges do not count as retries.
	MaxRetries int
	// RetryBackoff is the wait before retry k, scaled linearly: k×backoff
	// (default 100ms).
	RetryBackoff time.Duration
	// ProbeInterval is the /readyz polling period (default 2s).
	ProbeInterval time.Duration
	// MaxInFlight bounds concurrently executing fan-outs; excess
	// requests get 429 (default 16).
	MaxInFlight int
	// Logger receives one structured line per request (default
	// slog.Default).
	Logger *slog.Logger
	// Client issues the shard requests (default: an http.Client with the
	// query timeout on a transport of its own, which keeps one idle
	// connection per replica for each of MaxInFlight fan-outs).
	Client *http.Client
	// ScrapeInterval is the metrics-federation period: every interval
	// the gateway scrapes one ready replica per shard's /metrics and
	// re-exports the series with a shard label (default 15s). The
	// scraper rides the prober goroutine, so it needs StartProber.
	ScrapeInterval time.Duration
	// SlowQueryThreshold marks merged queries at or above this duration
	// as slow (full fan-out span tree retained, exposed at /debug/slow).
	// Default 1s; negative disables slow capture.
	SlowQueryThreshold time.Duration
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.HedgeAfter <= 0 {
		c.HedgeAfter = 300 * time.Millisecond
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 100 * time.Millisecond
	}
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = 2 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 16
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	if c.Client == nil {
		// http.DefaultTransport keeps 2 idle connections per host: above
		// two concurrent fan-outs every further shard leg would redial.
		// A replica sees at most one leg per in-flight fan-out (plus the
		// prober and the scraper), so that is the idle pool to keep.
		tr := http.DefaultTransport.(*http.Transport).Clone()
		tr.MaxIdleConnsPerHost = c.MaxInFlight + 2
		tr.MaxIdleConns = 0 // no fleet-wide cap under the per-replica one
		c.Client = &http.Client{Timeout: c.QueryTimeout, Transport: tr}
	}
	if c.ScrapeInterval <= 0 {
		c.ScrapeInterval = 15 * time.Second
	}
	return c
}

// gwResults enumerate the label values of esh_gw_queries_total. A
// degraded (partial) merge counts as "partial", not "completed".
var gwResults = [...]string{"completed", "partial", "failure", "rejected", "bad_input"}

// Gateway coordinates a fleet of eshd shards.
type Gateway struct {
	cfg   Config
	front *server.Front

	// ready[i][j] is replica j of shard i's last observed /readyz state
	// (true until the prober learns otherwise, so an unstarted prober
	// degrades to "try them in configured order").
	ready [][]atomic.Bool

	probeStop chan struct{}
	probeDone chan struct{}
	stopOnce  sync.Once

	reg      *telemetry.Registry
	hedges   *telemetry.Counter
	retries  *telemetry.Counter
	shardLat []*server.Latency      // per shard, of the winning fan-out leg
	frameLen []*telemetry.Histogram // per shard, bytes of each winning partial frame
	// tables[i] is shard slot i's last decoded target identity table,
	// shared by every replica of the slot (shard.TargetTable).
	tables []shard.TargetTable

	// Federation state: scrapes[i] holds shard i's last /metrics scrape
	// (atomically swapped whole, so renders never see a half-written
	// scrape); the counters track scrape outcomes per shard.
	scrapes    []atomic.Pointer[scrapeResult]
	scrapeOK   []*telemetry.Counter
	scrapeErr  []*telemetry.Counter
	fedDropped *telemetry.Counter
}

// scrapeResult is one shard's last federation scrape. fams is nil when
// the scrape failed — failure drops the shard's series from the
// federated page rather than re-exporting stale values.
type scrapeResult struct {
	replica string
	at      time.Time
	millis  float64
	err     string
	fams    []*telemetry.ParsedFamily
	series  int
	uptime  float64 // the shard's esh_http_uptime_seconds at scrape time
}

// New validates the fleet shape and builds a Gateway.
func New(cfg Config) (*Gateway, error) {
	cfg = cfg.withDefaults()
	if cfg.Manifest == nil {
		return nil, errors.New("gateway: no manifest")
	}
	if cfg.MaxRetries < 0 {
		return nil, fmt.Errorf("gateway: %d retries per shard; want 0 or more", cfg.MaxRetries)
	}
	if len(cfg.Shards) != len(cfg.Manifest.Shards) {
		return nil, fmt.Errorf("gateway: manifest has %d shards, %d replica sets configured", len(cfg.Manifest.Shards), len(cfg.Shards))
	}
	for i, reps := range cfg.Shards {
		if len(reps) == 0 {
			return nil, fmt.Errorf("gateway: shard %d has no replicas", i)
		}
		for j, u := range reps {
			cfg.Shards[i][j] = strings.TrimRight(u, "/")
		}
	}
	g := &Gateway{
		cfg:       cfg,
		probeStop: make(chan struct{}),
		probeDone: make(chan struct{}),
		reg:       telemetry.NewRegistry(),
	}
	g.ready = make([][]atomic.Bool, len(cfg.Shards))
	for i, reps := range cfg.Shards {
		g.ready[i] = make([]atomic.Bool, len(reps))
		for j := range g.ready[i] {
			g.ready[i][j].Store(true)
		}
	}
	man := cfg.Manifest
	g.front = server.NewFront(g.reg, server.FrontConfig{
		Prefix:             "esh_gw",
		Outcomes:           gwResults[:],
		MaxInFlight:        cfg.MaxInFlight,
		Logger:             cfg.Logger,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		Generation:         man.Generation,
	})
	g.hedges = g.reg.Counter("esh_gw_hedges_total", "Hedge requests launched.")
	g.retries = g.reg.Counter("esh_gw_retries_total", "Retry requests launched after a shard failure.")
	g.shardLat = make([]*server.Latency, len(cfg.Shards))
	g.frameLen = make([]*telemetry.Histogram, len(cfg.Shards))
	g.tables = make([]shard.TargetTable, len(cfg.Shards))
	g.scrapes = make([]atomic.Pointer[scrapeResult], len(cfg.Shards))
	g.scrapeOK = make([]*telemetry.Counter, len(cfg.Shards))
	g.scrapeErr = make([]*telemetry.Counter, len(cfg.Shards))
	for i := range cfg.Shards {
		g.shardLat[i] = server.NewLatency(g.reg, "esh_gw_shard",
			"Per-shard fan-out latency (first winning attempt).",
			"Streaming per-shard fan-out latency quantiles (P2 estimator).",
			"shard", fmt.Sprint(i))
		g.frameLen[i] = g.reg.Histogram("esh_gw_partial_bytes",
			"Size of the partial frame a shard leg returned.", frameBuckets,
			"shard", fmt.Sprint(i))
		g.scrapeOK[i] = g.reg.Counter("esh_gw_scrapes_total",
			"Federation scrapes of shard /metrics by result.",
			"shard", fmt.Sprint(i), "result", "ok")
		g.scrapeErr[i] = g.reg.Counter("esh_gw_scrapes_total",
			"Federation scrapes of shard /metrics by result.",
			"shard", fmt.Sprint(i), "result", "error")
	}
	g.reg.GaugeFunc("esh_gw_healthy_replicas", "Replicas currently passing /readyz.",
		func() float64 {
			n := 0
			for i := range g.ready {
				for j := range g.ready[i] {
					if g.ready[i][j].Load() {
						n++
					}
				}
			}
			return float64(n)
		})
	g.fedDropped = g.reg.Counter("esh_gw_federation_dropped_total",
		"Scraped families dropped from the federated page for type conflicts (cumulative over renders).")
	return g, nil
}

// frameBuckets bound esh_gw_partial_bytes: 4 KiB to 256 MiB in ×4 steps
// (a frame is ~8 bytes × query strands × the shard's targets, plus 16
// bytes per distinct VCP of each query strand's H0 histogram, plus the
// target identity table: 29 bytes per target and the bytes of its name
// and provenance strings, often the larger part).
var frameBuckets = []float64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20, 16 << 20, 64 << 20, 256 << 20}

// StartProber launches the background /readyz prober, which also
// drives the metrics-federation scraper on its own cadence; StopProber
// (or nothing, for tests — ScrapeFleet can be called directly) ends it.
func (g *Gateway) StartProber() {
	go func() {
		defer close(g.probeDone)
		t := time.NewTicker(g.cfg.ProbeInterval)
		defer t.Stop()
		st := time.NewTicker(g.cfg.ScrapeInterval)
		defer st.Stop()
		g.probeAll()
		g.ScrapeFleet(context.Background())
		for {
			select {
			case <-g.probeStop:
				return
			case <-t.C:
				g.probeAll()
			case <-st.C:
				g.ScrapeFleet(context.Background())
			}
		}
	}()
}

// ScrapeFleet scrapes one replica per shard's /metrics (ready replicas
// preferred) and stores the parsed families for the federated /metrics
// page and /v1/fleet. Shards scrape concurrently; a failed scrape
// replaces the shard's series with the failure, never with stale data.
func (g *Gateway) ScrapeFleet(ctx context.Context) {
	var wg sync.WaitGroup
	for sid := range g.cfg.Shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			g.scrapeShard(ctx, sid)
		}(sid)
	}
	wg.Wait()
}

func (g *Gateway) scrapeShard(ctx context.Context, sid int) {
	u := g.cfg.Shards[sid][g.replicaOrder(sid)[0]]
	start := time.Now()
	res := &scrapeResult{replica: u, at: start}
	fams, err := g.fetchMetrics(ctx, u)
	res.millis = float64(time.Since(start).Microseconds()) / 1000
	if err != nil {
		res.err = err.Error()
		g.scrapeErr[sid].Inc()
		g.cfg.Logger.Warn("federation scrape failed", "shard", sid, "replica", u, "err", err.Error())
	} else {
		res.fams = fams
		for _, f := range fams {
			res.series += len(f.Samples)
			if f.Name == "esh_http_uptime_seconds" {
				if v, ok := f.Gauge(); ok {
					res.uptime = v
				}
			}
		}
		g.scrapeOK[sid].Inc()
	}
	g.scrapes[sid].Store(res)
}

// maxMetricsBytes bounds one scraped /metrics page.
const maxMetricsBytes = 16 << 20

func (g *Gateway) fetchMetrics(ctx context.Context, base string) ([]*telemetry.ParsedFamily, error) {
	ctx, cancel := context.WithTimeout(ctx, g.cfg.ScrapeInterval)
	defer cancel()
	body, err := g.get(ctx, base+"/metrics", maxMetricsBytes)
	if err != nil {
		return nil, err
	}
	fams, err := telemetry.ParseExposition(bytes.NewReader(body))
	if err != nil {
		return nil, fmt.Errorf("parse exposition: %w", err)
	}
	return fams, nil
}

// get fetches url and returns the body of its 200 reply: the one GET the
// prober, the fleet check and the scraper share. A body over limit bytes
// is an error, never a truncated page.
func (g *Gateway) get(ctx context.Context, url string, limit int64) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return nil, err
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit+1))
	switch {
	case err != nil:
	case resp.StatusCode != http.StatusOK:
		err = fmt.Errorf("GET %s: HTTP %d", req.URL.Path, resp.StatusCode)
	case int64(len(body)) > limit:
		err = fmt.Errorf("GET %s: body exceeds %d bytes", url, limit)
	}
	return body, err
}

// StopProber stops the prober and waits for it to exit. Safe to call
// without StartProber only if StartProber is never called afterwards.
func (g *Gateway) StopProber() {
	g.stopOnce.Do(func() { close(g.probeStop) })
	select {
	case <-g.probeDone:
	case <-time.After(5 * time.Second):
	}
}

func (g *Gateway) probeAll() {
	var wg sync.WaitGroup
	for i, reps := range g.cfg.Shards {
		for j, u := range reps {
			wg.Add(1)
			go func(i, j int, u string) {
				defer wg.Done()
				g.ready[i][j].Store(g.probe(u))
			}(i, j, u)
		}
	}
	wg.Wait()
}

func (g *Gateway) probe(base string) bool {
	ctx, cancel := context.WithTimeout(context.Background(), g.cfg.ProbeInterval)
	defer cancel()
	_, err := g.get(ctx, base+"/readyz", 1<<10)
	return err == nil
}

// replicaOrder returns shard sid's replica indices, ready ones first,
// preserving configured order within each class — the order attempts
// (first try, hedges, retries) walk through.
func (g *Gateway) replicaOrder(sid int) []int {
	reps := g.cfg.Shards[sid]
	order := make([]int, 0, len(reps))
	for j := range reps {
		if g.ready[sid][j].Load() {
			order = append(order, j)
		}
	}
	for j := range reps {
		if !g.ready[sid][j].Load() {
			order = append(order, j)
		}
	}
	return order
}

// CheckFleet asks every replica for /v1/stats and judges the identity it
// reports by Manifest.CheckShard, the rule postPartial applies to every
// leg, and its partial wire version by this build's. Each error names
// the shard and the replica.
func (g *Gateway) CheckFleet(ctx context.Context) (errs []error) {
	for i, reps := range g.cfg.Shards {
		for _, u := range reps {
			var st server.StatsResponse
			body, err := g.get(ctx, u+"/v1/stats", 4<<20)
			if err == nil {
				err = json.Unmarshal(body, &st)
			}
			if err != nil {
				errs = append(errs, fmt.Errorf("shard %d: stats: %w (replica %s)", i, err, u))
				continue
			}
			if st.PartialWire != shard.WireVersion {
				errs = append(errs, fmt.Errorf("shard %d: partial wire version %d, this gateway reads %d; 0 is the JSON form of older builds (replica %s)", i, st.PartialWire, shard.WireVersion, u))
			}
			if err := g.cfg.Manifest.CheckShard(i, core.ShardInfo{
				ID:         st.Snapshot.ShardID,
				Count:      st.Snapshot.ShardCount,
				Generation: st.Snapshot.Generation,
			}); err != nil {
				errs = append(errs, fmt.Errorf("%w (replica %s)", err, u))
			}
		}
	}
	return errs
}

// shardReply is one shard's fan-out outcome, or one attempt's while the
// replicas race.
type shardReply struct {
	sid      int
	partial  *shard.Partial
	trace    *telemetry.SpanData
	bytes    int // size of the winning frame
	replica  string
	attempts int
	hedged   bool
	millis   float64
	err      error
}

// scatter fans the query out to every shard concurrently (each under
// qctx, so one span child per shard hangs off the caller's trace) and
// returns the per-shard outcomes in shard order.
func (g *Gateway) scatter(qctx context.Context, body []byte, wantTrace bool) []shardReply {
	replies := make([]shardReply, len(g.cfg.Shards))
	var wg sync.WaitGroup
	for sid := range g.cfg.Shards {
		wg.Add(1)
		go func(sid int) {
			defer wg.Done()
			_, ss := telemetry.StartSpan(qctx, fmt.Sprintf("shard_%d", sid))
			start := time.Now()
			replies[sid] = g.queryShard(qctx, sid, body, wantTrace)
			elapsed := time.Since(start)
			replies[sid].millis = float64(elapsed.Microseconds()) / 1000
			ss.SetAttr("attempts", float64(replies[sid].attempts))
			if replies[sid].hedged {
				ss.SetAttr("hedged", 1)
			}
			if replies[sid].err == nil {
				g.shardLat[sid].Observe(elapsed.Seconds())
				g.frameLen[sid].Observe(float64(replies[sid].bytes))
				ss.SetAttr("bytes", float64(replies[sid].bytes))
				ss.AttachRemote(replies[sid].trace)
			} else {
				ss.SetAttr("failed", 1)
			}
			ss.End()
		}(sid)
	}
	wg.Wait()
	return replies
}

// queryShard runs the hedged, retried attempt loop for one shard.
// Attempts walk the replica order (ready first); the first success
// wins. A hedge launches when the oldest outstanding attempt exceeds
// the hedge budget and an untried replica exists; a retry launches
// after a failure, with linear backoff, while the retry budget lasts.
func (g *Gateway) queryShard(ctx context.Context, sid int, body []byte, wantTrace bool) shardReply {
	order := g.replicaOrder(sid)
	reps := g.cfg.Shards[sid]
	maxAttempts := len(order) + g.cfg.MaxRetries

	results := make(chan shardReply, maxAttempts)
	launched, failed := 0, 0
	hedged := false
	launch := func() {
		u := reps[order[launched%len(order)]]
		launched++
		go func() {
			a, err := g.postPartial(ctx, u, sid, body, wantTrace)
			a.replica, a.err = u, err
			results <- a
		}()
	}
	launch()

	hedge := time.NewTimer(g.cfg.HedgeAfter)
	defer hedge.Stop()
	var lastErr error
	var backoff <-chan time.Time
	for {
		select {
		case a := <-results:
			if a.err == nil {
				a.sid, a.attempts, a.hedged = sid, launched, hedged
				return a
			}
			lastErr = fmt.Errorf("%s: %w", a.replica, a.err)
			failed++
			if failed == launched && launched < maxAttempts {
				// Every attempt so far failed; schedule a retry after
				// backoff (hedges in flight keep their chance to win).
				g.retries.Inc()
				backoff = time.After(time.Duration(failed) * g.cfg.RetryBackoff)
			} else if failed == launched {
				return shardReply{sid: sid, attempts: launched, hedged: hedged, err: lastErr}
			}
		case <-backoff:
			backoff = nil
			launch()
		case <-hedge.C:
			if launched < len(order) && launched < maxAttempts && backoff == nil {
				hedged = true
				g.hedges.Inc()
				launch()
			}
		case <-ctx.Done():
			return shardReply{sid: sid, attempts: launched, hedged: hedged,
				err: fmt.Errorf("shard %d: %w", sid, ctx.Err())}
		}
	}
}

// maxFrameBytes bounds one partial frame the gateway will buffer (a
// paper-sized corpus ships tens of KB per shard).
const maxFrameBytes = 1 << 30

// framePool recycles the buffers shard replies are read into; decoding
// copies everything out, so a buffer goes back as soon as it is parsed.
var framePool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// postPartial posts the query to one replica of slot sid's
// /v1/query/partial and decodes the reply frame through the slot's target
// table: the reply's partial, trace and size. A 200 that is not a frame of
// this build's wire version (a JSON body from an older eshd, say, a
// *shard.WireVersionError), or whose partial Manifest.CheckShard refuses
// for the slot (another slot, fleet size or generation), fails this leg
// like any other bad reply: the shard is retried elsewhere or reported
// missing.
func (g *Gateway) postPartial(ctx context.Context, base string, sid int, body []byte, wantTrace bool) (shardReply, error) {
	url := base + "/v1/query/partial"
	if wantTrace {
		url += "?trace=1"
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return shardReply{}, err
	}
	req.Header.Set("Content-Type", "application/json")
	if rid := server.RequestID(ctx); rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := g.cfg.Client.Do(req)
	if err != nil {
		return shardReply{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return shardReply{}, fmt.Errorf("HTTP %d: %s", resp.StatusCode, strings.TrimSpace(string(msg)))
	}
	buf := framePool.Get().(*bytes.Buffer)
	defer framePool.Put(buf)
	buf.Reset()
	if n := resp.ContentLength; n > 0 && n <= maxFrameBytes {
		buf.Grow(int(n) + bytes.MinRead) // ReadFrom wants MinRead spare to see EOF without regrowing
	}
	if _, err := buf.ReadFrom(io.LimitReader(resp.Body, maxFrameBytes+1)); err != nil {
		return shardReply{}, fmt.Errorf("read partial: %w", err)
	}
	if buf.Len() > maxFrameBytes {
		return shardReply{}, fmt.Errorf("partial frame exceeds %d bytes", maxFrameBytes)
	}
	f, err := shard.DecodeFrame(buf.Bytes(), &g.tables[sid])
	if err != nil {
		return shardReply{}, err
	}
	if err := g.cfg.Manifest.CheckShard(sid, f.Partial.Shard); err != nil {
		f.Partial.Release()
		return shardReply{}, err
	}
	rep := shardReply{partial: f.Partial, bytes: buf.Len()}
	if len(f.Trace) > 0 { // it aliases buf: unmarshal it before buf goes back
		rep.trace = new(telemetry.SpanData)
		if err := json.Unmarshal(f.Trace, rep.trace); err != nil {
			f.Partial.Release()
			return shardReply{}, fmt.Errorf("decode frame trace: %w", err)
		}
	}
	return rep, nil
}
