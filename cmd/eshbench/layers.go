package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/lift"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/smt"
	"repro/internal/stats"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
	"repro/internal/wal"
)

// This file is the traced run's per-layer ledger. Layers are measured
// from outside, with no source edits: in-process calls to each layer's
// public functions on the workload's own inputs, the span trees the
// servers already return for ?trace=1, and /v1/stats counter deltas
// around the timed window.

// engineStats is one eshd's /v1/stats.
type engineStats = server.StatsResponse

// engineStats reads /v1/stats from every eshd of the deployment (the
// gateway has no engine).
func (w *workloadRun) engineStats() ([]engineStats, error) {
	var out []engineStats
	for _, c := range w.dep.servers {
		if c.bin != "eshd" {
			continue
		}
		r := w.h.do(context.Background(), "GET", c.url+"/v1/stats", "", nil)
		if r.err != nil || r.status != 200 {
			return nil, fmt.Errorf("%s /v1/stats: status %d err %v", c.name, r.status, r.err)
		}
		var st engineStats
		if err := json.Unmarshal(r.body, &st); err != nil {
			return nil, err
		}
		out = append(out, st)
	}
	return out, nil
}

// engineDelta is what the engines did between two /v1/stats reads,
// summed over the deployment's daemons.
type engineDelta struct {
	queries, hits, misses, skipped, pruned, calls, gamma float64
	kernelS, vcpS                                        float64
	evicted, pairs                                       float64 // totals after, not deltas
}

func delta(before, after []engineStats) engineDelta {
	var d engineDelta
	for i := range after {
		a, b := after[i], before[i]
		d.queries += float64(a.Engine.Queries - b.Engine.Queries)
		d.hits += float64(a.VCPCache.Hits - b.VCPCache.Hits)
		d.misses += float64(a.VCPCache.Misses - b.VCPCache.Misses)
		d.skipped += float64(a.Prefilter.PairsSkipped - b.Prefilter.PairsSkipped)
		d.pruned += float64(a.Engine.PairsPruned - b.Engine.PairsPruned)
		d.calls += float64(a.Engine.VerifierCalls - b.Engine.VerifierCalls)
		d.gamma += float64(a.Engine.VerifierCorrespondences - b.Engine.VerifierCorrespondences)
		d.kernelS += a.Engine.KernelSeconds - b.Engine.KernelSeconds
		d.vcpS += a.Engine.StageSeconds["vcp"] - b.Engine.StageSeconds["vcp"]
		d.evicted += float64(a.VCPCache.Evicted)
		d.pairs += float64(a.VCPCache.Pairs)
	}
	return d
}

// cacheAndReplyRows reports the VCP cache's traffic over the window and
// its size after it, and the mean reply size.
func (w *workloadRun) cacheAndReplyRows(d engineDelta, win *window) {
	w.res.set("core.vcp_cache_hit_ratio", d.hits/(d.hits+d.misses), int(d.hits+d.misses))
	w.res.set("core.vcp_cache_evicted", d.evicted, 1)
	w.res.set("core.vcp_cache_pairs", d.pairs, 1)
	var bytesOut []float64
	for _, b := range win.first {
		if b != nil {
			bytesOut = append(bytesOut, float64(len(b)))
		}
	}
	w.res.set("server.response_bytes", mean(bytesOut), len(bytesOut))
}

// encodeIndented encodes v the way the servers write a reply.
func encodeIndented(v any) *bytes.Buffer {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // a bytes.Buffer cannot fail
	return &buf
}

// timed runs fn under a span and returns how long it took, in µs.
func (w *workloadRun) timed(name, request string, parent int, fn func()) float64 {
	sp := w.h.spans.start(name, request, parent)
	start := time.Now()
	fn()
	d := time.Since(start)
	sp.end()
	return float64(d.Nanoseconds()) / 1e3
}

// frontHalf times asm -> cfg -> lift -> strand -> prepare, the path
// every query walks before the pair loop, on the workload's queries,
// and returns the queries' strands for the layers that consume them.
func (w *workloadRun) frontHalf(qs []query) ([]*strand.Strand, error) {
	parent := w.h.spans.start("layers.front_half", "", w.root)
	defer parent.end()
	var parseUS, cfgUS, liftUS, strandUS, compileUS, prepareUS, counts []float64
	var out []*strand.Strand
	minVars := vcp.Default().MinVars
	// A 4-procedure hot set is walked 16 times: the first calls pay for
	// cold code and would otherwise be a quarter of the mean.
	reps := max(1, 64/len(qs))
	for i := 0; i < reps*len(qs); i++ {
		q := qs[i%len(qs)]
		text := q.Proc.String()
		var procs []*asm.Proc
		var g *cfg.Graph
		var lp *lift.Proc
		var all []*strand.Strand
		var err error
		parseUS = append(parseUS, w.timed("asm.Parse", q.Name, parent.id(), func() { procs, err = asm.Parse(text) }))
		if err != nil {
			return nil, err
		}
		cfgUS = append(cfgUS, w.timed("cfg.Build", q.Name, parent.id(), func() { g, err = cfg.Build(procs[0]) }))
		if err != nil {
			return nil, err
		}
		liftUS = append(liftUS, w.timed("lift.LiftProc", q.Name, parent.id(), func() { lp, err = lift.LiftProc(g) }))
		if err != nil {
			return nil, err
		}
		strandUS = append(strandUS, w.timed("strand.FromProc", q.Name, parent.id(), func() { all = strand.FromProc(lp) }))
		kept := 0
		for _, s := range all {
			if s.NumVars() < minVars {
				continue
			}
			kept++
			if i < len(qs) {
				out = append(out, s)
			}
			compileUS = append(compileUS, w.timed("smt.CompileStrand", q.Name, parent.id(), func() { _, err = smt.CompileStrand(s.Stmts, s.Inputs) }))
			if err != nil {
				return nil, err
			}
			prepareUS = append(prepareUS, w.timed("vcp.Prepare", q.Name, parent.id(), func() { vcp.Prepare(s, vcp.Config{}) }))
		}
		counts = append(counts, float64(kept))
	}
	w.res.set("asm.parse_us_per_query", mean(parseUS), len(parseUS))
	w.res.set("cfg.build_us_per_query", mean(cfgUS), len(cfgUS))
	w.res.set("lift.proc_us_per_query", mean(liftUS), len(liftUS))
	w.res.set("strand.extract_us_per_query", mean(strandUS), len(strandUS))
	w.res.set("strand.count_per_query", mean(counts), len(counts))
	w.res.set("vcp.prepare_us_per_strand", mean(prepareUS), len(prepareUS))
	w.res.set("smt.compile_us_per_strand", mean(compileUS), len(compileUS))
	return out, nil
}

// stageBudget reports the engine's stage self times and finalize (the
// root span's self time) from in-process QueryCtx span trees.
func (w *workloadRun) stageBudget(traces []*telemetry.SpanData) {
	stage := map[string][]float64{}
	var finalizeUS []float64
	for _, tr := range traces {
		for _, c := range tr.Children {
			stage[c.Name] = append(stage[c.Name], selfMS(c))
		}
		finalizeUS = append(finalizeUS, selfMS(tr)*1e3)
	}
	for _, name := range []string{"decompose", "prepare", "vcp", "score"} {
		w.res.set("core.stage."+name+"_ms", mean(stage[name]), len(stage[name]))
	}
	w.res.set("core.finalize_us_per_query", mean(finalizeUS), len(finalizeUS))
}

// servingShell measures the response encode and the flight recorder in
// process, on the oracle's own reports and span trees.
func (w *workloadRun) servingShell(orc *oracle, qs []query) error {
	parent := w.h.spans.start("layers.serving_shell", "", w.root)
	defer parent.end()
	rec := telemetry.NewRecorder(0, 0, time.Second)
	var encodeUS, recordUS []float64
	for _, q := range qs {
		ctx, root := telemetry.StartSpan(context.Background(), "query")
		rep, err := orc.db.QueryCtx(ctx, q.Proc)
		root.End()
		if err != nil {
			return err
		}
		encodeUS = append(encodeUS, w.timed("server.encode", q.Name, parent.id(), func() {
			encodeIndented(server.BuildQueryResponse(rep, stats.Esh, topN))
		}))
		recordUS = append(recordUS, w.timed("telemetry.record", q.Name, parent.id(), func() {
			qr := &telemetry.QueryRecord{ID: q.Name, Kind: "query", Outcome: "completed"}
			qr.FillFromTrace(root.Snapshot())
			rec.Record(qr)
		}))
	}
	w.res.set("server.encode_us_per_query", mean(encodeUS), len(encodeUS))
	w.res.set("telemetry.record_us_per_query", mean(recordUS), len(recordUS))
	return nil
}

// traceOverhead runs untraced and traced blocks of the same requests
// on the now-warm deployment, in the order U T T U U T so that drift
// falls on both sides alike; the ratio is one minus traced over
// untraced qps.
func (w *workloadRun) traceOverhead(qs []query, clients, perBlock int) {
	if len(qs) > fullSizes.hotSet {
		qs = qs[:fullSizes.hotSet]
	}
	var qps [2][]float64
	for _, traced := range []int{0, 1, 1, 0, 0, 1} {
		win := w.queryWindow("overhead", qs, clients, perBlock, traced == 1, nil)
		qps[traced] = append(qps[traced], float64(len(win.latenciesMS()))/win.elapsed.Seconds())
	}
	w.res.set("trace.overhead_ratio", 1-median(qps[1])/median(qps[0]), 6*perBlock)
}

// storageLayers measures the set-up path in process: building the
// corpus, indexing it target by target, and loading the snapshot.
func (w *workloadRun) storageLayers() error {
	parent := w.h.spans.start("layers.storage", "", w.root)
	defer parent.end()
	tcs, err := toolchains(smallToolchains)
	if err != nil {
		return err
	}
	synth := 0
	if w.dep.corpus == "C4" {
		synth = c4Synth
	}
	// The load comes first: whatever this function allocates later must
	// not be garbage the collection after the load frees. Two collections
	// each time: a sync.Pool (the kernel pools) keeps its contents through
	// one.
	var before, after runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	ctx, root := telemetry.StartSpan(context.Background(), "startup")
	var loaded *core.DB
	loadUS := w.timed("index.LoadFile", "", parent.id(), func() { loaded, err = index.LoadFileCtx(ctx, w.dep.snapshot()) })
	root.End()
	if err != nil {
		return err
	}
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(loaded)
	w.res.set("index.load_s", loadUS/1e6, 1)
	w.res.set("index.heap_after_load_mb", (float64(after.HeapAlloc)-float64(before.HeapAlloc))/(1<<20), 1)
	if ld := root.Snapshot().Find("index.load"); ld != nil {
		dec, prep := ld.Find("decode"), ld.Find("prepare")
		if dec != nil && prep != nil && dec.DurationMS+prep.DurationMS > 0 {
			w.res.set("index.load_decode_share", dec.DurationMS/(dec.DurationMS+prep.DurationMS), 1)
		}
	}
	var procs []*asm.Proc
	buildUS := w.timed("corpus.Build", "", parent.id(), func() {
		procs, err = corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: true, SynthVariants: synth})
	})
	if err != nil {
		return err
	}
	w.res.set("corpus.build_s", buildUS/1e6, 1)
	db := core.NewDB(core.Options{Prefilter: core.PrefilterLSH})
	addUS := w.timed("core.AddTarget", "", parent.id(), func() {
		for _, p := range procs {
			if err = db.AddTarget(p); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	w.res.set("core.add_target_us", addUS/float64(len(procs)), len(procs))
	return nil
}

// searchLayers is the traced ledger of the three query workloads.
func (w *workloadRun) searchLayers(qs, answered []query, clients int, win *window, before []engineStats, orc *oracle, oracleTraces []*telemetry.SpanData) error {
	after, err := w.engineStats()
	if err != nil {
		return err
	}
	d := delta(before, after)
	w.cacheAndReplyRows(d, win)

	var overheadMS []float64
	for _, s := range win.samples {
		if !s.ok || s.trace == nil {
			continue
		}
		inner := s.trace.DurationMS
		if w.res.Workload == "fleet_warm" {
			// The gateway's cost is what it adds to its slowest shard.
			inner = 0
			for _, c := range s.trace.Children {
				inner = max(inner, c.DurationMS)
			}
		}
		overheadMS = append(overheadMS, float64(s.latency.Nanoseconds())/1e6-inner)
	}
	strands, err := w.frontHalf(qs)
	if err != nil {
		return err
	}
	cold := w.res.Workload == "search_cold"
	if cold {
		// The oracle's passes were first-seen queries: the cold budget.
		w.stageBudget(oracleTraces)
	} else {
		// A second pass over the hot set hits the oracle's now-filled
		// cache: the warm budget, "what the 0.65 ms is".
		var warm []*telemetry.SpanData
		for _, q := range qs {
			_, tr, err := orc.answer(q.Proc)
			if err != nil {
				return err
			}
			warm = append(warm, tr)
		}
		w.stageBudget(warm)
	}
	// Only queries the oracle has already answered: anything else would
	// be a cold in-process query per procedure.
	if err := w.servingShell(orc, answered); err != nil {
		return err
	}
	switch w.res.Workload {
	case "search_cold":
		w.res.set("server.overhead_ms", median(overheadMS), len(overheadMS))
		w.res.set("core.lsh_skipped_per_query", d.skipped/d.queries, int(d.queries))
		w.res.set("core.pairs_pruned_per_query", d.pruned/d.queries, int(d.queries))
		w.res.set("core.verifier_calls_per_query", d.calls/d.queries, int(d.queries))
		w.res.set("core.gamma_per_query", d.gamma/d.queries, int(d.queries))
		w.res.set("smt.kernel_ns_per_gamma", d.kernelS*1e9/d.gamma, int(d.gamma))
		w.res.set("core.kernel_busy_share", d.kernelS/(d.vcpS*float64(runtime.GOMAXPROCS(0))), int(d.queries))
		w.candidateLayers(orc, strands)
	case "search_warm":
		w.res.set("server.overhead_ms", median(overheadMS), len(overheadMS))
	case "fleet_warm":
		w.res.set("gateway.overhead_ms", median(overheadMS), len(overheadMS))
		if err := w.clusterLayers(qs, win); err != nil {
			return err
		}
	}
	w.traceOverhead(qs, clients, max(20, len(win.samples)/10))
	return w.storageLayers()
}

// candidateLayers measures candidate selection and the verifier on the
// cold workload's strands against the corpus's strands: the sketch
// summary, the LSH candidate lookup, and Evaluator.Compute over a
// seeded sample of size-compatible pairs.
func (w *workloadRun) candidateLayers(orc *oracle, strands []*strand.Strand) {
	parent := w.h.spans.start("layers.candidates", "", w.root)
	defer parent.end()
	ex := orc.db.Export()
	scfg := orc.db.SketchConfig()
	ix := sketch.NewIndex(scfg)
	targets := make([]*vcp.Prepared, len(ex.Strands))
	for i, es := range ex.Strands {
		ix.Add(sketch.AdoptSignature(es.S, es.Sig, scfg))
		targets[i] = vcp.Prepare(es.S, vcp.Config{})
	}
	mark := make([]bool, len(ex.Strands))
	var sumUS, probeUS, cands []float64
	for _, s := range strands {
		var sum sketch.Summary
		sumUS = append(sumUS, w.timed("sketch.Summarize", "", parent.id(), func() { sum = sketch.Summarize(s, scfg) }))
		n := 0
		probeUS = append(probeUS, w.timed("sketch.Candidates", "", parent.id(), func() { n = ix.Candidates(sum, mark) }))
		cands = append(cands, float64(n))
		for i := range mark {
			mark[i] = false
		}
	}
	w.res.set("sketch.summarize_us_per_strand", mean(sumUS), len(sumUS))
	w.res.set("sketch.probe_us_per_strand", mean(probeUS), len(probeUS))
	w.res.set("sketch.candidates_per_probe", mean(cands), len(cands))

	// A fixed-seed sample: the same pairs on every run of every commit,
	// so vcp.gamma_per_pair repeats exactly.
	rng := rand.New(rand.NewSource(1))
	const pairs = 2000
	var computeUS, gamma []float64
	ratio := vcp.Default().SizeRatio
	for tries := 0; len(computeUS) < pairs && tries < 50*pairs; tries++ {
		qs := strands[rng.Intn(len(strands))]
		t := targets[rng.Intn(len(targets))]
		if !vcp.SizeCompatible(qs, t.S, ratio) {
			continue
		}
		q := vcp.Prepare(qs, vcp.Config{})
		ev := vcp.NewEvaluator(q, vcp.Config{})
		var st vcp.Stats
		computeUS = append(computeUS, w.timed("vcp.Evaluator.Compute", "", parent.id(), func() { _, st = ev.Compute(t) }))
		ev.Close()
		gamma = append(gamma, float64(st.Correspondences))
	}
	w.res.set("vcp.compute_us_per_pair", mean(computeUS), len(computeUS))
	w.res.set("vcp.gamma_per_pair", mean(gamma), len(gamma))
}

// clusterLayers splits the cluster tax: each shard's partial is
// computed, encoded, decoded and merged in process, and a single eshd
// on the whole corpus serves the same hot set for the tax ratio.
func (w *workloadRun) clusterLayers(qs []query, win *window) error {
	parent := w.h.spans.start("layers.cluster", "", w.root)
	defer parent.end()
	man, err := shard.LoadManifest(w.dep.manifest())
	if err != nil {
		return err
	}
	var dbs []*core.DB
	for i := 0; i < w.dep.shards; i++ {
		db, err := index.LoadFile(w.dep.shardFile(i))
		if err != nil {
			return err
		}
		dbs = append(dbs, db)
	}
	var size, encUS, decUS, mergeUS []float64
	for _, q := range qs {
		parts := make([]*shard.Partial, len(dbs))
		for i, db := range dbs {
			qp, err := db.PartialQueryCtx(context.Background(), q.Proc)
			if err != nil {
				return err
			}
			wire := &server.PartialResponse{Partial: shard.FromQueryPartial(qp, db.Shard())}
			var buf *bytes.Buffer
			encUS = append(encUS, w.timed("shard.partial_encode", q.Name, parent.id(), func() { buf = encodeIndented(wire) }))
			size = append(size, float64(buf.Len()))
			var back server.PartialResponse
			decUS = append(decUS, w.timed("shard.partial_decode", q.Name, parent.id(), func() { err = json.Unmarshal(buf.Bytes(), &back) }))
			if err != nil {
				return err
			}
			parts[i] = back.Partial
		}
		mergeUS = append(mergeUS, w.timed("shard.Merge", q.Name, parent.id(), func() { _, _, err = shard.Merge(man, parts) }))
		if err != nil {
			return err
		}
	}
	// Per query: both shards' partials.
	w.res.set("shard.partial_bytes_per_query", mean(size)*float64(len(dbs)), len(size))
	w.res.set("shard.partial_encode_us", mean(encUS), len(encUS))
	w.res.set("shard.partial_decode_us", mean(decUS), len(decUS))
	w.res.set("shard.merge_us_per_query", mean(mergeUS), len(mergeUS))

	// The single node: same snapshot build, same hot set, same clients.
	port, err := w.h.freePort()
	if err != nil {
		return err
	}
	single, err := w.h.start("eshd-single", "eshd", port, "-index", w.dep.snapshot())
	if err != nil {
		return err
	}
	defer single.kill()
	if err := w.h.waitReady(single); err != nil {
		return err
	}
	fleetFront := w.dep.front
	w.dep.front = single.url
	defer func() { w.dep.front = fleetFront }()
	w.queryWindow("single.warmup", qs, runtime.NumCPU(), len(qs), false, nil)
	one := w.queryWindow("single.timed", qs, runtime.NumCPU(), len(win.samples), true, nil)
	w.res.set("gateway.tax_ratio", percentile(win.latenciesMS(), 0.5)/percentile(one.latenciesMS(), 0.5), len(one.samples))
	return nil
}

// ingestLayers is the traced ledger of ingest_mixed: the reader's query
// layers, then the write path — WAL, apply, compaction, snapshot save —
// measured in process on the script's own records.
func (w *workloadRun) ingestLayers(qs []query, reads *window, before []engineStats, ackMS []float64) error {
	after, err := w.engineStats()
	if err != nil {
		return err
	}
	w.cacheAndReplyRows(delta(before, after), reads)
	var overheadMS []float64
	var served []*telemetry.SpanData
	for _, s := range reads.samples {
		if s.ok && s.trace != nil {
			overheadMS = append(overheadMS, float64(s.latency.Nanoseconds())/1e6-s.trace.DurationMS)
			served = append(served, s.trace)
		}
	}
	w.res.set("server.overhead_ms", median(overheadMS), len(overheadMS))
	// The reader's stage budget comes from the daemon's own span trees:
	// an in-process copy would not be racing the writer.
	w.stageBudget(served)
	if _, err := w.frontHalf(qs); err != nil {
		return err
	}

	parent := w.h.spans.start("layers.write_path", "", w.root)
	defer parent.end()
	// The WAL on the script's records: append without fsync, fsync
	// alone, then recovery and the compaction rewrite.
	walPath := filepath.Join(w.dep.dir, "layers.wal")
	log, _, err := wal.Open(walPath, wal.Options{Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	var appendUS, syncUS []float64
	var lastSeq uint64
	for _, op := range w.in.Writes {
		switch op.Kind {
		case "add":
			appendUS = append(appendUS, w.timed("wal.Append", op.Name, parent.id(), func() { lastSeq, err = log.Append(wal.OpAdd, op.Name, op.Asm) }))
		case "delete":
			appendUS = append(appendUS, w.timed("wal.Append", op.Name, parent.id(), func() { lastSeq, err = log.Append(wal.OpDelete, op.Name, "") }))
		default:
			continue
		}
		if err != nil {
			return err
		}
		syncUS = append(syncUS, w.timed("wal.Sync", op.Name, parent.id(), func() { err = log.Sync() }))
		if err != nil {
			return err
		}
	}
	walBytes := log.Stats().Bytes
	if err := log.Close(); err != nil {
		return err
	}
	w.res.set("wal.append_us_per_record", mean(appendUS), len(appendUS))
	w.res.set("wal.sync_us", median(syncUS), len(syncUS))
	w.res.set("wal.bytes_per_record", float64(walBytes)/float64(len(appendUS)), len(appendUS))
	var recs []wal.Record
	replayUS := w.timed("wal.Open", "", parent.id(), func() { log, recs, err = wal.Open(walPath, wal.Options{Sync: wal.SyncNone}) })
	if err != nil {
		return err
	}
	w.res.set("wal.replay_records_per_s", float64(len(recs))/(replayUS/1e6), len(recs))
	rewriteUS := w.timed("wal.Rewrite", "", parent.id(), func() { err = log.Rewrite(lastSeq / 2) })
	if err != nil {
		return err
	}
	w.res.set("wal.rewrite_ms", rewriteUS/1e3, 1)
	if err := log.Close(); err != nil {
		return err
	}

	// Apply and compaction on a private copy of the corpus, no journal:
	// the engine's share of a write, without the WAL's.
	if err := w.storageLayers(); err != nil {
		return err
	}
	base := filepath.Join(w.dep.dir, "layers.eshidx")
	if _, err := w.h.runTool("eshcorpus", append([]string{"-save", base}, w.dep.scale...)...); err != nil {
		return err
	}
	db, err := index.LoadFile(base)
	if err != nil {
		return err
	}
	var addUS, removeUS []float64
	for _, op := range w.in.Writes {
		switch op.Kind {
		case "add":
			p, err := asm.ParseProc(op.Asm)
			if err != nil {
				return err
			}
			addUS = append(addUS, w.timed("core.ApplyAdd", op.Name, parent.id(), func() { err = db.ApplyAdd(p) }))
			if err != nil {
				return err
			}
		case "delete":
			removeUS = append(removeUS, w.timed("core.ApplyRemove", op.Name, parent.id(), func() { _, err = db.ApplyRemove(op.Name) }))
			if err != nil {
				return err
			}
		}
	}
	w.res.set("core.apply_add_us", mean(addUS), len(addUS))
	w.res.set("core.apply_remove_us", mean(removeUS), len(removeUS))
	var saveUS float64
	compactUS := w.timed("core.Compact", "", parent.id(), func() {
		_, _, err = db.Compact(func(ex *core.Export) error {
			var perr error
			saveUS = w.timed("index.SaveExportFile", "", parent.id(), func() { _, perr = index.SaveExportFile(base, ex) })
			return perr
		}, nil)
	})
	if err != nil {
		return err
	}
	w.res.set("index.save_s", saveUS/1e6, 1)
	w.res.set("core.compact_ms", (compactUS-saveUS)/1e3, 1)
	if err := os.Remove(base); err != nil {
		return err
	}
	engineMS := (mean(appendUS) + median(syncUS) + (3*mean(addUS)+mean(removeUS))/4) / 1e3
	w.res.set("server.write_overhead_ms", max(percentile(ackMS, 0.5)-engineMS, 0), len(ackMS))
	w.traceOverhead(qs, 1, max(20, len(reads.samples)/10))
	return nil
}
