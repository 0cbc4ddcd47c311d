// Package server exposes an indexed core.DB over HTTP as a JSON query
// service — the lookup half of the index-once/query-many split. It is
// deliberately small: request decoding, a per-request timeout, an
// in-flight query limit (back-pressure instead of queue collapse),
// metrics, and structured logging. Process lifecycle (listening,
// signal-driven graceful shutdown) belongs to cmd/eshd.
package server

import (
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/wal"
)

// Config tunes the service. Zero values select the documented defaults.
type Config struct {
	// QueryTimeout bounds one query's wall time, queueing included
	// (default 60s).
	QueryTimeout time.Duration
	// MaxInFlight bounds concurrently executing queries; excess
	// requests are rejected with 429 (default 2×GOMAXPROCS).
	MaxInFlight int
	// Logger receives one structured line per request (default
	// slog.Default).
	Logger *slog.Logger
	// SlowQueryThreshold marks queries at or above this duration as
	// slow: they keep their full span tree in the flight recorder, show
	// up at GET /debug/slow, and emit a structured warning line. Default
	// 1s; negative disables slow capture (the recorder itself stays on).
	SlowQueryThreshold time.Duration
	// RecorderSize bounds the flight-recorder ring (default
	// telemetry.DefaultRecorderSize).
	RecorderSize int
}

func (c Config) withDefaults() Config {
	if c.QueryTimeout <= 0 {
		c.QueryTimeout = 60 * time.Second
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.Logger == nil {
		c.Logger = slog.Default()
	}
	return c
}

// queryResults enumerate the label values of esh_http_queries_total: one
// terminal outcome per query request.
var queryResults = [...]string{"completed", "failure", "timeout", "rejected", "bad_input"}

// Server serves similarity queries — and, over a writable store, live
// corpus mutations — against one DB.
type Server struct {
	db    *core.DB
	cfg   Config
	front *Front

	store *index.Store // the corpus's files; nil serves in memory, read-only
	// queryFn indirects db.RunPlan so tests can inject slow or failing
	// queries deterministically; partialFn likewise for db.RunPlanPartial.
	queryFn   func(context.Context, *core.QueryPlan) (*core.Report, error)
	partialFn func(context.Context, *core.QueryPlan) (*core.QueryPartial, error)
	// plans keeps the plans of request texts already answered.
	plans planMemo

	// ready gates /readyz: true once the snapshot is loaded and
	// serving, flipped false by SetReady during graceful drain so load
	// balancers and the gateway stop picking this replica before the
	// listener closes. Liveness (/healthz) is independent: a draining
	// process is still alive.
	ready atomic.Bool

	// HTTP-level metrics (the front door's and the in-flight gauges);
	// engine metrics live in the DB's registry and both are rendered by
	// /metrics.
	reg *telemetry.Registry
}

// New builds a read-only Server around an in-memory database.
func New(db *core.DB, cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		db:        db,
		cfg:       cfg,
		queryFn:   db.RunPlan,
		partialFn: db.RunPlanPartial,
		reg:       telemetry.NewRegistry(),
	}
	s.ready.Store(true)
	s.front = NewFront(s.reg, FrontConfig{
		Prefix:             "esh_http",
		Outcomes:           queryResults[:],
		MaxInFlight:        cfg.MaxInFlight,
		Logger:             cfg.Logger,
		SlowQueryThreshold: cfg.SlowQueryThreshold,
		RecorderSize:       cfg.RecorderSize,
		Generation:         db.Shard().Generation,
	})
	s.reg.GaugeFunc("esh_http_inflight_queries", "Queries executing right now.",
		func() float64 { return float64(s.front.InFlight()) })
	s.reg.GaugeFunc("esh_http_max_inflight", "Configured in-flight query limit.",
		func() float64 { return float64(cfg.MaxInFlight) })
	s.plans.init(s.reg)
	return s
}

// FromStore builds a Server around the corpus st owns, as eshd serves it:
// the write endpoints are on when st has a write-ahead log.
func FromStore(st *index.Store, cfg Config) *Server {
	s := New(st.DB(), cfg)
	s.store = st
	return s
}

// Handler returns the HTTP handler tree (with request-ID assignment and
// request logging).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/query/partial", s.handlePartial)
	mux.HandleFunc("GET /v1/targets", s.handleTargets)
	mux.HandleFunc("POST /v1/targets", s.handleAddTarget)
	mux.HandleFunc("DELETE /v1/targets/{name}", s.handleDeleteTarget)
	mux.HandleFunc("POST /v1/compact", s.handleCompact)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /readyz", s.handleReady)
	return s.front.Handler(mux)
}

// SetReady flips the /readyz state. cmd/eshd calls SetReady(false) at
// the start of a graceful drain, then waits out a grace period before
// closing the listener, so pollers observe the 503 and route around the
// replica while it still answers in-flight (and straggler) queries.
func (s *Server) SetReady(v bool) { s.ready.Store(v) }

// Ready reports the current /readyz state.
func (s *Server) Ready() bool { return s.ready.Load() }

func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if !s.ready.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

type requestIDKey struct{}

// newRequestID returns a fresh request ID: 8 random bytes, hex-encoded.
func newRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "unknown"
	}
	return hex.EncodeToString(b[:])
}

// RequestID returns the request ID assigned to ctx by the handler
// chain, or "".
func RequestID(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey{}).(string)
	return id
}

// WithRequestID returns ctx carrying rid, so non-server frontends (the
// gateway) reuse the same correlation plumbing.
func WithRequestID(ctx context.Context, rid string) context.Context {
	return context.WithValue(ctx, requestIDKey{}, rid)
}

// logged is the request middleware of both daemons: it assigns every
// request an ID (the client's X-Request-ID when present, otherwise
// generated), echoes it in the response header, and emits one structured
// log line carrying it and the status answered — so a log line, a traced
// response and a client retry all correlate on one token, and a gateway's
// line with its shards' (it forwards the ID on every fan-out leg).
func logged(logger *slog.Logger, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rid := r.Header.Get("X-Request-ID")
		if rid == "" || len(rid) > 128 {
			rid = newRequestID()
		}
		w.Header().Set("X-Request-ID", rid)
		r = r.WithContext(context.WithValue(r.Context(), requestIDKey{}, rid))
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		logger.Info("request",
			"request_id", rid,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.status,
			"dur_ms", float64(time.Since(start).Microseconds())/1000,
			"remote", r.RemoteAddr,
		)
	})
}

// handleMetrics renders the server, engine, and process-default metric
// registries as one Prometheus text-format page. Names are disjoint by
// construction (esh_http_*, esh_vcp_*/esh_query_*/esh_index_* gauges,
// esh_index_*_seconds), so concatenation is a valid exposition.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	for _, reg := range []*telemetry.Registry{s.reg, s.db.Metrics(), telemetry.Default()} {
		if err := reg.WriteText(w); err != nil {
			return // client went away; nothing sensible to do
		}
	}
}

// WriteJSON writes v as a reply, for the gateway too: the compact
// encoding/json form and a newline (`| jq .` to read it).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v) // a write error means the client went away
}

// QueryRequest is the POST /v1/query body.
type QueryRequest struct {
	// Asm holds one or more procedures in assembler-text form; the
	// first is the query.
	Asm string `json:"asm"`
	// Method is the ranking method: "esh" (default) or "slog".
	Method string `json:"method,omitempty"`
	// Top bounds the number of ranked results (default 20).
	Top int `json:"top,omitempty"`
}

// QueryResult is one ranked row of a QueryResponse.
type QueryResult struct {
	Rank      int     `json:"rank"`
	Target    string  `json:"target"`
	Package   string  `json:"package,omitempty"`
	Toolchain string  `json:"toolchain,omitempty"`
	Patched   bool    `json:"patched,omitempty"`
	Score     float64 `json:"score"`
	GES       float64 `json:"ges"`
	SLOG      float64 `json:"slog"`
}

// QueryResponse is the POST /v1/query reply.
type QueryResponse struct {
	Query      string        `json:"query"`
	RequestID  string        `json:"request_id,omitempty"`
	Method     string        `json:"method"`
	NumBlocks  int           `json:"num_blocks"`
	NumStrands int           `json:"num_strands"`
	Results    []QueryResult `json:"results"`
	// Trace is the per-query span tree (stage timings and work counts),
	// present when the request opted in with ?trace=1.
	Trace *telemetry.SpanData `json:"trace,omitempty"`
}

// methodByName maps a wire-form ranking-method name to a stats.Method;
// "" selects the default (esh).
func methodByName(name string) (stats.Method, error) {
	switch name {
	case "", "esh":
		return stats.Esh, nil
	case "slog":
		return stats.SLOG, nil
	}
	return stats.Esh, fmt.Errorf("unknown method %q (esh, slog)", name)
}

// runQuery is everything /v1/query and /v1/query/partial do between a
// decoded request and a reply: find the text's plan or parse the procedure,
// admit it, plan it if need be and run the engine call under a root span
// named span with the query timeout, count the outcome and publish the
// flight-recorder entry (under kind). On any failure it has written the
// error reply and returns ok=false; otherwise the caller owns the 200 reply.
func runQuery[T any](s *Server, w http.ResponseWriter, r *http.Request, asmText, kind, span string,
	run func(context.Context, *core.QueryPlan) (T, error)) (T, *telemetry.Span, bool) {
	var zero T
	// Nothing before the pair loop depends on the corpus: a text answered
	// before skips the parser here and stages 1–2 below.
	memoized := s.plans.get(asmText)
	var proc *asm.Proc
	if memoized == nil {
		var ok bool
		if proc, ok = s.front.ParseQuery(w, asmText); !ok {
			return zero, nil, false
		}
	}
	// The slot is held until the engine call ends, past a timeout's 504.
	release, ok := s.front.Admit(w)
	if !ok {
		return zero, nil, false
	}

	start := time.Now()
	type result struct {
		val T
		err error
	}
	done := make(chan result, 1)
	// The engine runs on a background context (not r.Context()): a query
	// is not cancellable once started, and the span tree must stay valid
	// past a client disconnect. The root span covers queueing-free engine
	// time; the engine hangs the stage spans under it.
	qctx, root := telemetry.StartSpan(context.Background(), span)
	go func() {
		defer release()
		var out result
		pl := memoized
		if pl != nil {
			s.db.TracePlanReuse(qctx)
		} else if pl, out.err = s.db.Plan(qctx, proc); out.err == nil {
			s.plans.put(asmText, pl)
		}
		if out.err == nil {
			out.val, out.err = run(qctx, pl)
		}
		root.End()
		done <- out
	}()

	timer := time.NewTimer(s.cfg.QueryTimeout)
	defer timer.Stop()
	rid := RequestID(r.Context())
	select {
	case out := <-done:
		if out.err != nil {
			s.front.Finish(kind, rid, "failure", out.err.Error(), start, root)
			Fail(w, http.StatusUnprocessableEntity, "query: %v", out.err)
			return zero, nil, false
		}
		s.front.Finish(kind, rid, "completed", "", start, root)
		return out.val, root, true
	case <-timer.C:
		// The engine query is not cancellable; it keeps running (and
		// keeps holding its in-flight slot) while the client gets a 504.
		// The record snapshots the still-running span tree: elapsed time
		// so far, with whatever stages have finished.
		msg := fmt.Sprintf("query exceeded %s", s.cfg.QueryTimeout)
		s.front.Finish(kind, rid, "timeout", msg, start, root)
		Fail(w, http.StatusGatewayTimeout, "%s", msg)
		return zero, nil, false
	}
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, m, top, ok := s.front.DecodeQuery(w, r)
	if !ok {
		return
	}
	rep, root, ok := runQuery(s, w, r, req.Asm, "query", "query", s.queryFn)
	if !ok {
		return
	}
	resp := BuildQueryResponse(rep, m, top)
	rep.Release() // resp holds copies of what it shows
	resp.RequestID = RequestID(r.Context())
	if r.URL.Query().Get("trace") == "1" {
		resp.Trace = root.Snapshot()
	}
	WriteJSON(w, http.StatusOK, resp)
}

// rankedSlabs holds the per-target rankings BuildQueryResponse sorts for a
// method other than esh.
var rankedSlabs core.SlabPool[core.TargetScore]

// BuildQueryResponse ranks a report and shapes it as the wire response.
// Exported so the gateway renders merged reports through the exact same
// code path a single node uses — the differential guarantee includes
// the response encoding.
func BuildQueryResponse(rep *core.Report, m stats.Method, top int) *QueryResponse {
	resp := &QueryResponse{
		Query:      rep.QueryName,
		Method:     m.String(),
		NumBlocks:  rep.NumBlocks,
		NumStrands: rep.NumStrands,
		Results:    []QueryResult{},
	}
	// A report is ranked by GES already; only the other methods re-sort,
	// into a slab this function owns and hands back once it has copied it.
	ranked := rep.Results
	if m != stats.Esh {
		ranked = rep.RankInto(rankedSlabs.Get(len(rep.Results)), m)
		defer rankedSlabs.Put(ranked)
	}
	for i, ts := range ranked[:min(top, len(ranked))] {
		resp.Results = append(resp.Results, QueryResult{
			Rank:      i + 1,
			Target:    ts.Target.Name,
			Package:   ts.Target.Source.Package,
			Toolchain: ts.Target.Source.Toolchain,
			Patched:   ts.Target.Source.Patched,
			Score:     ts.Score(m),
			GES:       ts.GES,
			SLOG:      ts.SLOG,
		})
	}
	return resp
}

// TargetInfo is one row of GET /v1/targets.
type TargetInfo struct {
	Name       string `json:"name"`
	Package    string `json:"package,omitempty"`
	Toolchain  string `json:"toolchain,omitempty"`
	Patched    bool   `json:"patched,omitempty"`
	NumBlocks  int    `json:"num_blocks"`
	NumStrands int    `json:"num_strands"`
}

func (s *Server) handleTargets(w http.ResponseWriter, r *http.Request) {
	live := s.db.LiveTargets()
	out := make([]TargetInfo, 0, len(live))
	for _, t := range live {
		out = append(out, TargetInfo{
			Name:       t.Name,
			Package:    t.Source.Package,
			Toolchain:  t.Source.Toolchain,
			Patched:    t.Source.Patched,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
		})
	}
	WriteJSON(w, http.StatusOK, map[string]any{"targets": out})
}

// writeEnabled gates the write API: 501 with a pointer at -wal when the
// daemon has no durable journal.
func (s *Server) writeEnabled(w http.ResponseWriter) bool {
	if s.store == nil || !s.store.Writable() {
		Fail(w, http.StatusNotImplemented, "live writes are disabled (start eshd with -wal)")
		return false
	}
	return true
}

// WriteRequest is the POST /v1/targets body: one or more procedures in
// assembler-text form, each indexed as one target.
type WriteRequest struct {
	Asm string `json:"asm"`
}

// WriteResponse is the reply of the write endpoints. Added lists the
// target names indexed by a POST (in order; on error the prefix that
// was durably applied before the failure). Removed counts tombstoned
// targets. Generation, WALSeq (the journal high-water mark) and
// PendingWrites (the uncompacted write count) are read off one corpus
// version at or after the write: together they are a state the database
// was in, whatever other writers and compactions are doing.
type WriteResponse struct {
	Added         []string `json:"added,omitempty"`
	Removed       int      `json:"removed,omitempty"`
	Generation    uint64   `json:"generation"`
	WALSeq        uint64   `json:"wal_seq"`
	PendingWrites int      `json:"pending_writes"`
}

func (s *Server) fillWriteState(resp *WriteResponse) {
	ws := s.db.WriteState()
	resp.Generation, resp.WALSeq, resp.PendingWrites = ws.Generation, ws.WALSeq, ws.PendingWrites
}

// writeStatus maps a write-path error to its HTTP status: duplicate
// names conflict (409), unknown names are absent (404), journal append
// failures are server-side (500, the write was not applied), and
// everything else is an unprocessable procedure (422).
func writeStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrDuplicateTarget):
		return http.StatusConflict
	case errors.Is(err, core.ErrTargetNotFound):
		return http.StatusNotFound
	case errors.Is(err, core.ErrJournal):
		return http.StatusInternalServerError
	default:
		return http.StatusUnprocessableEntity
	}
}

// handleAddTarget serves POST /v1/targets: journal, then index, each
// procedure in the body. Each procedure is individually durable — on a
// mid-batch failure the response still lists the prefix that was
// acknowledged, and those targets survive a crash.
func (s *Server) handleAddTarget(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	var req WriteRequest
	if status, err := decodeBody(w, r, &req); err != nil {
		Fail(w, status, "%v", err)
		return
	}
	procs, err := parseProcs(req.Asm)
	if err != nil {
		Fail(w, http.StatusBadRequest, "%v", err)
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "write")
	resp := &WriteResponse{}
	for _, p := range procs {
		if err := s.db.ApplyAdd(p); err != nil {
			root.End()
			s.front.record("write", rid, "failure", err.Error(), start, root)
			s.fillWriteState(resp)
			status := writeStatus(err)
			WriteJSON(w, status, map[string]any{
				"error":   err.Error(),
				"added":   resp.Added,
				"wal_seq": resp.WALSeq,
			})
			return
		}
		resp.Added = append(resp.Added, p.Name)
	}
	root.SetAttr("targets_added", float64(len(resp.Added)))
	root.End()
	s.front.record("write", rid, "completed", "", start, root)
	s.fillWriteState(resp)
	WriteJSON(w, http.StatusOK, resp)
}

// handleDeleteTarget serves DELETE /v1/targets/{name}: tombstone every
// live target with that name. The strands stay resident until the next
// compaction but stop influencing scores immediately.
func (s *Server) handleDeleteTarget(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	name := r.PathValue("name")
	if name == "" {
		Fail(w, http.StatusBadRequest, "empty target name")
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "delete")
	n, err := s.db.ApplyRemove(name)
	root.End()
	if err != nil {
		s.front.record("delete", rid, "failure", err.Error(), start, root)
		Fail(w, writeStatus(err), "%v", err)
		return
	}
	s.front.record("delete", rid, "completed", "", start, root)
	resp := &WriteResponse{Removed: n}
	s.fillWriteState(resp)
	WriteJSON(w, http.StatusOK, resp)
}

// handleCompact serves POST /v1/compact: fold the journal and
// tombstones into a new snapshot generation through the store.
func (s *Server) handleCompact(w http.ResponseWriter, r *http.Request) {
	if !s.writeEnabled(w) {
		return
	}
	rid := RequestID(r.Context())
	start := time.Now()
	_, root := telemetry.StartSpan(context.Background(), "compact")
	gen, _, err := s.store.Compact()
	root.SetAttr("generation", float64(gen))
	root.End()
	if err != nil {
		s.front.record("compact", rid, "failure", err.Error(), start, root)
		Fail(w, http.StatusInternalServerError, "compact: %v", err)
		return
	}
	s.front.record("compact", rid, "completed", "", start, root)
	resp := &WriteResponse{}
	s.fillWriteState(resp)
	WriteJSON(w, http.StatusOK, resp)
}

// StatsResponse is the GET /v1/stats reply.
type StatsResponse struct {
	Uptime
	Index struct {
		Targets       int `json:"targets"`
		LiveTargets   int `json:"live_targets"`
		UniqueStrands int `json:"unique_strands"`
		TotalStrands  int `json:"total_strands"`
	} `json:"index"`
	// Writes reports the live write path: whether it is enabled, the
	// data generation (bumped per compaction), the journal high-water
	// mark, uncompacted write and tombstone counts, and — when a WAL is
	// attached — its on-disk statistics. A gateway refuses to merge
	// partials from a shard with nonzero pending writes or generation
	// (its manifest no longer describes that shard's corpus).
	Writes struct {
		Enabled       bool       `json:"enabled"`
		Generation    uint64     `json:"generation"`
		WALSeq        uint64     `json:"wal_seq"`
		PendingWrites int        `json:"pending_writes"`
		Tombstones    int        `json:"tombstones"`
		WAL           *wal.Stats `json:"wal,omitempty"`
	} `json:"writes"`
	// Snapshot identifies the index snapshot this replica serves —
	// format version, body checksum, and (when the corpus is one shard
	// of a split) the shard coordinates and fleet generation. A gateway
	// compares these across replicas to detect a mixed fleet before
	// trusting merged scores.
	Snapshot struct {
		Version    int    `json:"version,omitempty"`
		Checksum   string `json:"checksum,omitempty"`
		ShardID    int    `json:"shard_id"`
		ShardCount int    `json:"shard_count"`
		Generation string `json:"generation,omitempty"`
	} `json:"snapshot"`
	// PartialWire is the shard.WireVersion of this replica's
	// /v1/query/partial replies (0 from a pre-frame build, which replied
	// in JSON); a gateway refuses a replica that speaks another version.
	PartialWire int `json:"partial_wire_version"`
	VCPCache    struct {
		Pairs     int     `json:"pairs"`
		QueryKeys int     `json:"query_keys"`
		CapPairs  int     `json:"cap_pairs"`
		Evicted   uint64  `json:"evicted"`
		Hits      uint64  `json:"hits"`
		Misses    uint64  `json:"misses"`
		HitRate   float64 `json:"hit_rate"`
		// RowsComplete counts query strands answered entirely from their
		// cached row (no pair walked, no strand prepared).
		RowsComplete uint64 `json:"rows_complete"`
	} `json:"vcp_cache"`
	// PlanMemo is the request-text → plan memo in front of the engine: a
	// hit skipped the parser and pipeline stages 1–2.
	PlanMemo struct {
		Hits        uint64 `json:"hits"`
		Misses      uint64 `json:"misses"`
		Evictions   uint64 `json:"evictions"`
		Bytes       int    `json:"bytes"`
		BudgetBytes int    `json:"budget_bytes"`
	} `json:"plan_memo"`
	// Prefilter reports stage 3's candidate test: the pairs skipped before
	// the verifier because they are forward-dead (cumulative across
	// queries).
	Prefilter struct {
		PairsSkipped uint64 `json:"pairs_skipped"`
	} `json:"prefilter"`
	// Engine aggregates pipeline work across all queries: verifier
	// effort, pruning effectiveness, evaluation-kernel time,
	// γ-invariant hoisting coverage, and cumulative per-stage wall time.
	Engine struct {
		Queries                 uint64             `json:"queries"`
		PairsPruned             uint64             `json:"pairs_pruned"`
		VerifierCalls           uint64             `json:"verifier_calls"`
		VerifierCorrespondences uint64             `json:"verifier_correspondences"`
		SigmoidK                float64            `json:"sigmoid_k"`
		KernelSeconds           float64            `json:"kernel_seconds"`
		KernelPrefixInstrs      uint64             `json:"kernel_prefix_instrs"`
		KernelInstrs            uint64             `json:"kernel_instrs"`
		GammaBatches            uint64             `json:"gamma_batches"`
		GammaBatchRows          uint64             `json:"gamma_batch_rows"`
		StageSeconds            map[string]float64 `json:"stage_seconds"`
		// Memo is the γ-fingerprint memo: correspondences answered from
		// it (hits) or evaluated by the kernel (misses — what
		// kernel_seconds and the gamma_batch figures cover), and the
		// bytes the in-flight queries' memos hold against its fixed
		// ceiling for how many remembered assignments (entries).
		Memo struct {
			Hits        uint64 `json:"hits"`
			Misses      uint64 `json:"misses"`
			Bytes       int64  `json:"bytes"`
			Entries     int64  `json:"entries"`
			BudgetBytes int64  `json:"budget_bytes"`
		} `json:"memo"`
	} `json:"engine"`
	Queries struct {
		Completed uint64 `json:"completed"`
		Failures  uint64 `json:"failures"`
		Timeouts  uint64 `json:"timeouts"`
		Rejected  uint64 `json:"rejected"`
		BadInput  uint64 `json:"bad_input"`
		InFlight  int    `json:"in_flight"`
		MaxIn     int    `json:"max_in_flight"`
	} `json:"queries"`
	Served
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	dbs := s.db.Stats()
	resp := &StatsResponse{Uptime: s.front.Uptime(), Served: s.front.Served()}
	resp.Index.Targets = dbs.Targets
	resp.Index.LiveTargets = dbs.LiveTargets
	resp.Index.UniqueStrands = dbs.UniqueStrands
	resp.Index.TotalStrands = dbs.TotalStrands
	resp.Writes.Generation = dbs.Generation
	resp.Writes.WALSeq = dbs.WALSeq
	resp.Writes.PendingWrites = dbs.PendingWrites
	resp.Writes.Tombstones = dbs.Tombstones
	if s.store != nil {
		resp.Writes.Enabled = s.store.Writable()
		resp.Writes.WAL = s.store.WALStats()
		snap := s.store.Snapshot()
		resp.Snapshot.Version = snap.Version
		resp.Snapshot.Checksum = snap.Checksum
	}
	si := s.db.Shard()
	resp.Snapshot.ShardID = si.ID
	resp.Snapshot.ShardCount = si.Count
	resp.Snapshot.Generation = si.Generation
	resp.PartialWire = shard.WireVersion
	resp.VCPCache.Pairs = int(dbs.VCPCache.Held)
	resp.VCPCache.QueryKeys = dbs.VCPCache.Entries
	resp.VCPCache.CapPairs = int(dbs.VCPCache.Budget)
	resp.VCPCache.Evicted = dbs.VCPCache.Evictions
	resp.VCPCache.Hits = dbs.VCPCacheHits
	resp.VCPCache.Misses = dbs.VCPCacheMisses
	resp.VCPCache.HitRate = dbs.VCPCacheHitRate()
	resp.VCPCache.RowsComplete = dbs.VCPRowsComplete
	resp.PlanMemo.Hits = s.plans.hits.Value()
	resp.PlanMemo.Misses = s.plans.misses.Value()
	plans := s.plans.stats()
	resp.PlanMemo.Evictions = plans.Evictions
	resp.PlanMemo.Bytes = int(plans.Held)
	resp.PlanMemo.BudgetBytes = int(plans.Budget)
	resp.Prefilter.PairsSkipped = dbs.LSHPairsSkipped
	resp.Engine.Queries = dbs.Queries
	resp.Engine.PairsPruned = dbs.VCPPairsPruned
	resp.Engine.VerifierCalls = dbs.VerifierCalls
	resp.Engine.VerifierCorrespondences = dbs.VerifierCorrespondences
	resp.Engine.SigmoidK = s.db.Options().SigmoidK
	resp.Engine.KernelSeconds = float64(dbs.KernelNanos) / 1e9
	resp.Engine.KernelPrefixInstrs = dbs.KernelPrefixInstrs
	resp.Engine.KernelInstrs = dbs.KernelInstrs
	resp.Engine.GammaBatches = dbs.GammaBatches
	resp.Engine.GammaBatchRows = dbs.GammaBatchRows
	resp.Engine.Memo.Hits = dbs.MemoHits
	resp.Engine.Memo.Misses = dbs.MemoMisses
	resp.Engine.Memo.Bytes = dbs.Memo.Held
	resp.Engine.Memo.Entries = dbs.Memo.Entries
	resp.Engine.Memo.BudgetBytes = dbs.Memo.Budget
	resp.Engine.StageSeconds = dbs.StageSeconds

	resp.Queries.Completed = s.front.Total("completed")
	resp.Queries.Failures = s.front.Total("failure")
	resp.Queries.Timeouts = s.front.Total("timeout")
	resp.Queries.Rejected = s.front.Total("rejected")
	resp.Queries.BadInput = s.front.Total("bad_input")
	resp.Queries.InFlight = s.front.InFlight()
	resp.Queries.MaxIn = s.cfg.MaxInFlight
	WriteJSON(w, http.StatusOK, resp)
}
