package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"repro/internal/asm"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// A request body is at most maxBodyBytes on every endpoint of both daemons,
// and a ranked reply at most maxTop rows (defaultTop when the request names
// none).
const (
	maxBodyBytes = 8 << 20
	maxTop       = 1000
	defaultTop   = 20
)

// latencyQuantiles are the streamed percentiles of every Latency.
var latencyQuantiles = [...]float64{0.5, 0.95, 0.99}

// Latency is one latency distribution kept two ways: a histogram,
// <name>_seconds, and its streamed P² quantiles,
// <name>_quantile_seconds{quantile}.
type Latency struct {
	hist *telemetry.Histogram
	q    *telemetry.Quantiles
}

// NewLatency registers a Latency's two families on reg, with their HELP
// texts and the labels (key, value pairs) all their samples carry.
func NewLatency(reg *telemetry.Registry, name, help, quantileHelp string, labels ...string) *Latency {
	l := &Latency{
		hist: reg.Histogram(name+"_seconds", help, nil, labels...),
		q:    telemetry.NewQuantiles(latencyQuantiles[:]...),
	}
	for _, p := range latencyQuantiles {
		reg.GaugeFunc(name+"_quantile_seconds", quantileHelp, func() float64 { return l.q.Quantile(p) },
			append([]string{"quantile", telemetry.FormatQuantile(p)}, labels...)...)
	}
	return l
}

// Observe adds one latency, in seconds.
func (l *Latency) Observe(secs float64) {
	l.hist.Observe(secs)
	l.q.Observe(secs)
}

// QuantilesMS reads the quantiles as {"p50": ms, ...}, the empty stream's
// NaN as 0 so that the map is JSON-encodable.
func (l *Latency) QuantilesMS() map[string]float64 {
	out := make(map[string]float64, len(latencyQuantiles))
	for _, p := range latencyQuantiles {
		v := l.q.Quantile(p)
		if math.IsNaN(v) {
			v = 0
		}
		out[fmt.Sprintf("p%g", p*100)] = v * 1000
	}
	return out
}

// bucketsMS maps histogram bucket labels ("<=50ms", ">10000ms") to counts,
// empty buckets omitted.
func (l *Latency) bucketsMS() map[string]uint64 {
	bounds, counts := l.hist.Snapshot()
	out := make(map[string]uint64, len(counts))
	for i, n := range counts {
		switch {
		case n == 0:
		case i < len(bounds):
			out[fmt.Sprintf("<=%gms", bounds[i]*1000)] = n
		default:
			out[fmt.Sprintf(">%gms", bounds[len(bounds)-1]*1000)] = n
		}
	}
	return out
}

// FrontConfig is what a daemon tells its front door about itself.
type FrontConfig struct {
	// Prefix names the daemon's query families: <Prefix>_queries_total,
	// _query_seconds, _query_quantile_seconds, _uptime_seconds and
	// _slow_queries_total.
	Prefix string
	// Outcomes are the result labels of <Prefix>_queries_total. They must
	// include bad_input and rejected, which the front door counts itself.
	Outcomes []string
	// MaxInFlight bounds the queries admitted at once.
	MaxInFlight int
	Logger      *slog.Logger
	// SlowQueryThreshold marks records slow: they enter the slow ring and
	// log a warning. 0 selects 1s; negative disables slow capture.
	SlowQueryThreshold time.Duration
	// Generation names the corpus the daemon serves: the stamp on every
	// record.
	Generation string
}

// Front is the front door of both daemons: everything a served query passes
// through before and after eshd's engine call or eshgw's fan-out. It decodes
// and bounds the request, admits it or sheds it, counts its outcome, times
// it and leaves a flight-recorder record; it serves the recorder and the
// /v1/stats blocks both daemons report. It never asks which daemon it
// serves: each hands it a registry and a FrontConfig.
type Front struct {
	cfg      FrontConfig
	sem      chan struct{}
	release  func()
	outcomes map[string]*telemetry.Counter
	latency  *Latency
	started  time.Time
	rec      *telemetry.Recorder
}

// NewFront registers the front door's families on reg: outcome counters,
// answered-query latency, uptime, start time, esh_build_info, the Go
// runtime series, the slow-query counter and the recorder's record count.
func NewFront(reg *telemetry.Registry, cfg FrontConfig) *Front {
	if cfg.SlowQueryThreshold == 0 {
		cfg.SlowQueryThreshold = time.Second
	}
	f := &Front{
		cfg:      cfg,
		sem:      make(chan struct{}, cfg.MaxInFlight),
		outcomes: make(map[string]*telemetry.Counter, len(cfg.Outcomes)),
		started:  time.Now(),
		rec:      telemetry.NewRecorder(0, 0, cfg.SlowQueryThreshold),
	}
	f.release = func() { <-f.sem }
	for _, res := range cfg.Outcomes {
		f.outcomes[res] = reg.Counter(cfg.Prefix+"_queries_total", "Queries by terminal outcome.", "result", res)
	}
	f.latency = NewLatency(reg, cfg.Prefix+"_query", "End-to-end latency of answered queries.",
		"Streaming latency quantiles of answered queries (P2 estimator).")
	reg.GaugeFunc(cfg.Prefix+"_uptime_seconds", "Seconds since the daemon started.",
		func() float64 { return time.Since(f.started).Seconds() })
	reg.Gauge("esh_process_start_time_seconds",
		"Unix time the process started.").Set(float64(f.started.UnixNano()) / 1e9)
	reg.Gauge("esh_build_info", "Build and engine configuration (value is always 1).",
		"go_version", runtime.Version()).Set(1)
	telemetry.RegisterRuntime(reg)
	reg.CounterFunc(cfg.Prefix+"_slow_queries_total", "Queries at or above the slow-query threshold.",
		func() float64 { return float64(f.rec.SlowTotal()) })
	reg.GaugeFunc("esh_flight_recorder_records", "Query records ever published to the flight recorder.",
		func() float64 { return float64(f.rec.Total()) })
	return f
}

// Handler completes a daemon's routes with the ones both serve — GET
// /healthz and the flight recorder's GET /debug/slow and GET /debug/queries
// — and wraps the whole tree in the request log (logged).
func (f *Front) Handler(mux *http.ServeMux) http.Handler {
	mux.HandleFunc("GET /debug/slow", f.handleSlow)
	mux.HandleFunc("GET /debug/queries", f.handleRecent)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	return logged(f.cfg.Logger, mux)
}

// Fail writes a JSON error reply.
func Fail(w http.ResponseWriter, status int, format string, args ...any) {
	WriteJSON(w, status, map[string]string{"error": fmt.Sprintf(format, args...)})
}

// refuse counts a request that never reached an engine under outcome and
// replies status with err.
func (f *Front) refuse(w http.ResponseWriter, outcome string, status int, err error) {
	f.outcomes[outcome].Inc()
	Fail(w, status, "%v", err)
}

// decodeBody reads a JSON request body of at most maxBodyBytes into v. On
// failure it returns the reply's status — 413 past the cap, 400 otherwise —
// and message.
func decodeBody(w http.ResponseWriter, r *http.Request, v any) (int, error) {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooLarge *http.MaxBytesError
	switch {
	case err == nil:
		return http.StatusOK, nil
	case errors.As(err, &tooLarge):
		return http.StatusRequestEntityTooLarge, fmt.Errorf("request body exceeds %d bytes", maxBodyBytes)
	default:
		return http.StatusBadRequest, fmt.Errorf("decode request: %v", err)
	}
}

// DecodeQuery reads a QueryRequest, its ranking method and its top (default
// 20, at most 1000). On failure it has counted bad_input and replied.
func (f *Front) DecodeQuery(w http.ResponseWriter, r *http.Request) (req QueryRequest, m stats.Method, top int, ok bool) {
	status, err := decodeBody(w, r, &req)
	if err == nil {
		status = http.StatusBadRequest
		m, err = methodByName(req.Method)
	}
	if err != nil {
		f.refuse(w, "bad_input", status, err)
		return req, m, 0, false
	}
	if top = req.Top; top <= 0 {
		top = defaultTop
	}
	return req, m, min(top, maxTop), true
}

// parseProcs parses request asm text that must hold a procedure.
func parseProcs(text string) ([]*asm.Proc, error) {
	procs, err := asm.Parse(text)
	switch {
	case err != nil:
		return nil, fmt.Errorf("parse asm: %w", err)
	case len(procs) == 0:
		return nil, errors.New("no procedure in request")
	}
	return procs, nil
}

// ParseQuery parses a query request's procedure (the first in its text). On
// failure it has counted bad_input and replied 400.
func (f *Front) ParseQuery(w http.ResponseWriter, text string) (*asm.Proc, bool) {
	procs, err := parseProcs(text)
	if err != nil {
		f.refuse(w, "bad_input", http.StatusBadRequest, err)
		return nil, false
	}
	return procs[0], true
}

// Admit takes an in-flight slot, or sheds the request — 429 with
// Retry-After: 1, counted as rejected — rather than queue it: a loaded
// search service should shed, not build an unbounded latency backlog. The
// caller runs release once its query stops occupying the slot.
func (f *Front) Admit(w http.ResponseWriter) (release func(), ok bool) {
	select {
	case f.sem <- struct{}{}:
		return f.release, true
	default:
		w.Header().Set("Retry-After", "1")
		f.refuse(w, "rejected", http.StatusTooManyRequests, fmt.Errorf("too many in-flight queries (limit %d)", cap(f.sem)))
		return nil, false
	}
}

// InFlight is the number of admitted queries holding a slot.
func (f *Front) InFlight() int { return len(f.sem) }

// Total reads the outcome counter of one result label.
func (f *Front) Total(outcome string) uint64 { return f.outcomes[outcome].Value() }

// Finish ends an admitted query: it counts outcome, adds the latency since
// start when the query was answered (errMsg == ""), and records it.
func (f *Front) Finish(kind, rid, outcome, errMsg string, start time.Time, root *telemetry.Span, shards ...telemetry.ShardOutcome) {
	f.outcomes[outcome].Inc()
	if errMsg == "" {
		f.latency.Observe(time.Since(start).Seconds())
	}
	f.record(kind, rid, outcome, errMsg, start, root, shards...)
}

// record publishes one flight-recorder entry, the span tree the daemon
// grows for every request, traced or not, and logs the slow-query warning
// when it crossed the threshold. Refused requests never ran and leave no
// record.
func (f *Front) record(kind, rid, outcome, errMsg string, start time.Time, root *telemetry.Span, shards ...telemetry.ShardOutcome) {
	rec := &telemetry.QueryRecord{
		ID:         rid,
		Kind:       kind,
		Start:      start,
		Outcome:    outcome,
		Err:        errMsg,
		Generation: f.cfg.Generation,
		Shards:     shards,
	}
	rec.FillFromTrace(root.Snapshot())
	if !f.rec.Record(rec) {
		return
	}
	// The warning reads the kept tree: each stage's milliseconds (shard_N
	// legs at the gateway) and an engine query's pairs and cache misses,
	// one verifier call each.
	args := []any{"request_id", rid, "kind", kind, "outcome", outcome,
		"dur_ms", rec.DurationMS, "threshold_ms", f.thresholdMS()}
	for _, c := range rec.Trace.Children {
		args = append(args, c.Name+"_ms", c.DurationMS)
		if c.Name == "vcp" {
			args = append(args, "pairs", c.Attrs["pairs"], "cache_misses", c.Attrs["cache_misses"])
		}
	}
	f.cfg.Logger.Warn("slow query", args...)
}

func (f *Front) thresholdMS() float64 {
	return float64(f.rec.SlowThreshold().Microseconds()) / 1000
}

// Uptime opens both daemons' /v1/stats.
type Uptime struct {
	StartTime     time.Time `json:"start_time"`
	UptimeSeconds float64   `json:"uptime_seconds"`
}

// Uptime reads the front door's start time and age.
func (f *Front) Uptime() Uptime {
	return Uptime{StartTime: f.started.UTC(), UptimeSeconds: time.Since(f.started).Seconds()}
}

// Served closes both daemons' /v1/stats: how fast answered queries were,
// and the flight recorder's totals.
type Served struct {
	// LatencyMS maps histogram bucket labels ("<=50ms", ">10000ms") to
	// answered-query counts. Empty buckets are omitted.
	LatencyMS map[string]uint64 `json:"latency_ms"`
	// LatencyQuantilesMS are the streamed P2 estimates behind the
	// <prefix>_query_quantile_seconds gauges (zero until traffic).
	LatencyQuantilesMS map[string]float64 `json:"latency_quantiles_ms"`
	// Recorder summarizes the flight recorder (see /debug/slow and
	// /debug/queries for the records themselves).
	Recorder struct {
		Records     uint64  `json:"records"`
		Slow        uint64  `json:"slow"`
		ThresholdMS float64 `json:"threshold_ms"`
	} `json:"recorder"`
}

// Served reads the latency and recorder blocks.
func (f *Front) Served() Served {
	s := Served{LatencyMS: f.latency.bucketsMS(), LatencyQuantilesMS: f.latency.QuantilesMS()}
	s.Recorder.Records = f.rec.Total()
	s.Recorder.Slow = f.rec.SlowTotal()
	s.Recorder.ThresholdMS = f.thresholdMS()
	return s
}

// SlowResponse is the GET /debug/slow reply: the retained slow-query
// records, newest first, each with its full span tree.
type SlowResponse struct {
	ThresholdMS float64                  `json:"threshold_ms"`
	Total       uint64                   `json:"total_slow"`
	Recorded    uint64                   `json:"total_recorded"`
	Records     []*telemetry.QueryRecord `json:"records"`
}

func (f *Front) handleSlow(w http.ResponseWriter, r *http.Request) {
	WriteJSON(w, http.StatusOK, &SlowResponse{
		ThresholdMS: f.thresholdMS(),
		Total:       f.rec.SlowTotal(),
		Recorded:    f.rec.Total(),
		Records:     f.rec.Slow(),
	})
}

// handleRecent serves GET /debug/queries: the most recent flight-recorder
// entries, each with its span tree, newest first. ?n= bounds the count
// (default 100).
func (f *Front) handleRecent(w http.ResponseWriter, r *http.Request) {
	n := 100
	if v := r.URL.Query().Get("n"); v != "" {
		if parsed, err := strconv.Atoi(v); err == nil && parsed > 0 {
			n = parsed
		}
	}
	WriteJSON(w, http.StatusOK, map[string]any{
		"total":   f.rec.Total(),
		"records": f.rec.Recent(n),
	})
}
