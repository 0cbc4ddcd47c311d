package gateway

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// QueryResponse is the gateway's POST /v1/query reply: the single-node
// response shape (so clients and diff tools need no gateway-specific
// handling) plus degradation flags. On a complete fleet Partial is
// false and both extra fields are omitted, making the body
// field-for-field comparable with a single node's.
type QueryResponse struct {
	server.QueryResponse
	// Partial is true when at least one shard contributed nothing;
	// results then cover only the reachable corpus.
	Partial bool `json:"partial,omitempty"`
	// MissingShards lists the shard IDs that contributed nothing.
	MissingShards []int `json:"missing_shards,omitempty"`
}

// Handler returns the gateway's HTTP handler tree. The query surface
// mirrors internal/server's: same request schema, same ranked response
// rows, plus /readyz reporting whether every shard is reachable.
func (g *Gateway) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", g.handleQuery)
	mux.HandleFunc("GET /v1/stats", g.handleStats)
	mux.HandleFunc("GET /v1/fleet", g.handleFleet)
	mux.HandleFunc("GET /metrics", g.handleMetrics)
	mux.HandleFunc("GET /readyz", g.handleReady)
	return g.front.Handler(mux)
}

func (g *Gateway) handleReady(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for sid := range g.ready {
		ok := false
		for j := range g.ready[sid] {
			if g.ready[sid][j].Load() {
				ok = true
				break
			}
		}
		if !ok {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintf(w, "shard %d has no ready replica\n", sid)
			return
		}
	}
	fmt.Fprintln(w, "ready")
}

// handleFleet serves GET /v1/fleet: the JSON fleet-health view —
// generation, readiness, gateway-observed per-shard latency quantiles,
// and each shard's last federation scrape.
func (g *Gateway) handleFleet(w http.ResponseWriter, r *http.Request) {
	up := g.front.Uptime()
	fleet := &shard.FleetHealth{
		Generation:    g.cfg.Manifest.Generation,
		StartTime:     up.StartTime,
		UptimeSeconds: up.UptimeSeconds,
		Ready:         true,
		Shards:        make([]shard.ShardHealth, len(g.cfg.Shards)),
	}
	for sid, reps := range g.cfg.Shards {
		sh := shard.ShardHealth{
			ID:       sid,
			Targets:  len(g.cfg.Manifest.Shards[sid].Targets),
			Replicas: make([]shard.ReplicaHealth, len(reps)),
		}
		anyReady := false
		for j, u := range reps {
			up := g.ready[sid][j].Load()
			sh.Replicas[j] = shard.ReplicaHealth{URL: u, Ready: up}
			fleet.Replicas++
			if up {
				anyReady = true
				fleet.ReadyReplicas++
			}
		}
		if !anyReady {
			fleet.Ready = false
		}
		q := g.shardLat[sid].QuantilesMS()
		sh.P50MS, sh.P95MS, sh.P99MS = q["p50"], q["p95"], q["p99"]
		if sr := g.scrapes[sid].Load(); sr != nil {
			sh.UptimeSeconds = sr.uptime
			sh.LastScrape = &shard.ScrapeStatus{
				Replica: sr.replica,
				At:      sr.at.UTC(),
				Millis:  sr.millis,
				Series:  sr.series,
				Err:     sr.err,
			}
		}
		fleet.Shards[sid] = sh
	}
	server.WriteJSON(w, http.StatusOK, fleet)
}

func (g *Gateway) handleQuery(w http.ResponseWriter, r *http.Request) {
	req, m, top, ok := g.front.DecodeQuery(w, r)
	if !ok {
		return
	}
	// Parse locally before burning fleet work: malformed asm fails here
	// with a 400 instead of N× 400s from the shards.
	if _, ok := g.front.ParseQuery(w, req.Asm); !ok {
		return
	}
	wantTrace := r.URL.Query().Get("trace") == "1"
	// The slot is held for the whole fan-out: the handler returns with it.
	release, ok := g.front.Admit(w)
	if !ok {
		return
	}
	defer release()

	// Forward a canonical body: the query procedure only, ignored
	// method/top stripped.
	fwd, err := json.Marshal(server.QueryRequest{Asm: req.Asm})
	if err != nil {
		server.Fail(w, http.StatusInternalServerError, "encode fan-out body: %v", err)
		return
	}

	start := time.Now()
	rid := server.RequestID(r.Context())
	ctx, cancel := context.WithTimeout(server.WithRequestID(context.Background(), rid), g.cfg.QueryTimeout)
	defer cancel()
	qctx, root := telemetry.StartSpan(ctx, "gateway_query")
	replies := g.scatter(qctx, fwd, wantTrace)
	root.End()

	parts := make([]*shard.Partial, 0, len(replies))
	legs := make([]telemetry.ShardOutcome, len(replies))
	for i, rep := range replies {
		legs[i] = telemetry.ShardOutcome{Shard: rep.sid, Replica: rep.replica, Millis: rep.millis,
			Attempts: rep.attempts, Hedged: rep.hedged}
		if rep.err != nil {
			legs[i].Err = rep.err.Error()
			g.cfg.Logger.Warn("shard failed",
				"request_id", rid,
				"shard", rep.sid, "attempts", rep.attempts, "err", rep.err.Error())
			continue
		}
		parts = append(parts, rep.partial)
	}
	report, missing, err := shard.Merge(g.cfg.Manifest, parts)
	if err != nil {
		g.front.Finish("gateway", rid, "failure", err.Error(), start, root, legs...)
		status := http.StatusBadGateway
		if len(parts) > 0 {
			// Shards answered but inconsistently — a fleet bug, not a
			// transient outage.
			status = http.StatusInternalServerError
		}
		server.Fail(w, status, "merge: %v", err)
		return
	}

	outcome := "completed"
	if len(missing) > 0 {
		outcome = "partial"
	}
	g.front.Finish("gateway", rid, outcome, "", start, root, legs...)

	resp := &QueryResponse{
		QueryResponse: *server.BuildQueryResponse(report, m, top),
		Partial:       len(missing) > 0,
		MissingShards: missing,
	}
	resp.RequestID = server.RequestID(r.Context())
	if wantTrace {
		resp.Trace = root.Snapshot()
	}
	server.WriteJSON(w, http.StatusOK, resp)
}

// StatsResponse is the gateway's GET /v1/stats reply.
type StatsResponse struct {
	server.Uptime
	Fleet struct {
		Generation string `json:"generation"`
		Shards     int    `json:"shards"`
		Targets    int    `json:"targets"`
		Replicas   int    `json:"replicas"`
		Ready      int    `json:"ready_replicas"`
	} `json:"fleet"`
	Queries struct {
		Completed uint64 `json:"completed"`
		Partial   uint64 `json:"partial"`
		Failures  uint64 `json:"failures"`
		Rejected  uint64 `json:"rejected"`
		BadInput  uint64 `json:"bad_input"`
		InFlight  int    `json:"in_flight"`
		MaxIn     int    `json:"max_in_flight"`
	} `json:"queries"`
	Hedges  uint64 `json:"hedges"`
	Retries uint64 `json:"retries"`
	// ShardReady[i] lists per-replica readiness for shard i, in
	// configured replica order.
	ShardReady [][]bool `json:"shard_ready"`
	server.Served
}

func (g *Gateway) handleStats(w http.ResponseWriter, r *http.Request) {
	resp := &StatsResponse{Uptime: g.front.Uptime(), Served: g.front.Served()}
	resp.Fleet.Generation = g.cfg.Manifest.Generation
	resp.Fleet.Shards = len(g.cfg.Manifest.Shards)
	resp.Fleet.Targets = g.cfg.Manifest.NumTargets
	resp.ShardReady = make([][]bool, len(g.ready))
	for i := range g.ready {
		resp.ShardReady[i] = make([]bool, len(g.ready[i]))
		for j := range g.ready[i] {
			resp.Fleet.Replicas++
			up := g.ready[i][j].Load()
			resp.ShardReady[i][j] = up
			if up {
				resp.Fleet.Ready++
			}
		}
	}
	resp.Queries.Completed = g.front.Total("completed")
	resp.Queries.Partial = g.front.Total("partial")
	resp.Queries.Failures = g.front.Total("failure")
	resp.Queries.Rejected = g.front.Total("rejected")
	resp.Queries.BadInput = g.front.Total("bad_input")
	resp.Queries.InFlight = g.front.InFlight()
	resp.Queries.MaxIn = g.cfg.MaxInFlight
	resp.Hedges = g.hedges.Value()
	resp.Retries = g.retries.Value()
	server.WriteJSON(w, http.StatusOK, resp)
}

// handleMetrics renders the federated exposition: the gateway's own
// registry plus every shard's last scraped /metrics page re-labeled
// with shard="<id>". The merge goes through parse → label → merge →
// re-render, so the result is one family block per name with a single
// TYPE/HELP line — strict-parser-clean by construction even when the
// gateway and shards export same-named families (esh_build_info,
// esh_process_start_time_seconds). Scraped families whose type
// conflicts with the gateway's own are dropped and counted.
func (g *Gateway) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	var buf bytes.Buffer
	if err := g.reg.WriteText(&buf); err != nil {
		return
	}
	own, err := telemetry.ParseExposition(bytes.NewReader(buf.Bytes()))
	if err != nil {
		// The registry's own rendering should always parse; degrade to
		// the raw page rather than serving nothing.
		_, _ = w.Write(buf.Bytes())
		return
	}
	var scraped []*telemetry.ParsedFamily
	for sid := range g.scrapes {
		sr := g.scrapes[sid].Load()
		if sr == nil || sr.fams == nil {
			continue
		}
		for _, f := range sr.fams {
			scraped = append(scraped, f.WithLabels("shard", strconv.Itoa(sid)))
		}
	}
	merged, dropped := telemetry.MergeFamilies(own, scraped)
	if n := len(dropped); n > 0 {
		g.fedDropped.Add(uint64(n))
	}
	_ = telemetry.WriteFamilies(w, merged)
}
