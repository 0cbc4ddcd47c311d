package core

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// This file is the query pipeline: the result types, stages 1–2 as a plan,
// and stages 3–4 run over one corpus version.

// queryStages names the Query pipeline stages, in execution order. Each
// has a span in the per-query trace and a duration histogram in the
// DB's metrics registry.
var queryStages = [...]string{"decompose", "prepare", "vcp", "score"}

// TargetScore is one row of a query result: the two method scores the
// engine computes for one target, plus ground-truth provenance for
// evaluation. S-VCP, the §6.2 baseline, is not among them: it reads the
// reverse VCP direction, which nothing served needs, so package
// experiments computes it on its own.
type TargetScore struct {
	Target *Target
	SLOG   float64
	GES    float64 // the full Esh score
}

// Score returns the score under the requested method, Esh or S-LOG. Any
// other method is a caller's bug: methods that arrive from outside the
// program are validated where they enter.
func (ts TargetScore) Score(m stats.Method) float64 {
	switch m {
	case stats.SLOG:
		return ts.SLOG
	case stats.Esh:
		return ts.GES
	}
	panic(fmt.Sprintf("core: the engine does not score %s", m))
}

// Report is the result of one query against the database.
type Report struct {
	QueryName  string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // query strands surviving the size filter
	// Results holds one entry per target, sorted by descending GES.
	Results []TargetScore

	// results is the pooled slab behind Results, which Release hands back.
	results []TargetScore
}

// Rank returns the results re-sorted by the given method's score under
// Finalize's rule: descending, −0 equal to +0, NaNs last, ties in their
// GES order. The receiver is unchanged.
func (r *Report) Rank(m stats.Method) []TargetScore {
	return r.RankInto(make([]TargetScore, len(r.Results)), m)
}

// RankInto is Rank writing into dst, which must hold len(Results) entries:
// a caller that ranks every query passes a slab it owns and pools.
func (r *Report) RankInto(dst []TargetScore, m stats.Method) []TargetScore {
	n := len(r.Results)
	dst = dst[:n]
	slab := rankSlabs.Get(2 * n)
	for i, ts := range r.Results {
		slab[i] = rankEntry{rankKey(ts.Score(m)), int32(i)}
	}
	for k, e := range radixRank(slab[:n], slab[n:]) {
		dst[k] = r.Results[e.pos]
	}
	rankSlabs.Put(slab)
	return dst
}

// Release hands the slab behind Results back to the pool for a later query
// to reuse, and clears Results. The caller must hold nothing it read from
// it: a served reply is built first (BuildQueryResponse copies what it
// shows), then released. A report that is never released leaves its slab
// to the collector.
func (r *Report) Release() {
	targetScoreSlabs.Put(r.results)
	r.Results, r.results = nil, nil
}

// Query scores every indexed target against the query procedure. It is
// QueryCtx with a background context (metrics are still recorded; no
// trace tree is reachable by the caller).
func (db *DB) Query(p *asm.Proc) (*Report, error) {
	return db.QueryCtx(context.Background(), p)
}

// QueryCtx scores every indexed target against the query procedure.
// Each pipeline stage (decompose, prepare, vcp, score) is recorded as a
// child of the telemetry span carried by ctx (if any) with work counts
// attached — strand pairs examined, cache hits and misses, verifier
// invocations — so callers can report a per-query stage breakdown.
// Stage durations also feed the DB's stage histograms regardless of
// whether ctx carries a span. It is Plan followed by RunPlan.
func (db *DB) QueryCtx(ctx context.Context, p *asm.Proc) (*Report, error) {
	pl, err := db.Plan(ctx, p)
	if err != nil {
		return nil, err
	}
	return db.RunPlan(ctx, pl)
}

// PartialQueryCtx is Plan followed by RunPlanPartial.
func (db *DB) PartialQueryCtx(ctx context.Context, p *asm.Proc) (*QueryPartial, error) {
	pl, err := db.Plan(ctx, p)
	if err != nil {
		return nil, err
	}
	return db.RunPlanPartial(ctx, pl)
}

// QueryPlan is stages 1–2 of the pipeline as a value: the query's unique
// strands in first-seen order, canonical keys built, and their
// multiplicities. It depends on the procedure and on the DB's options,
// which never change — not on the corpus — so it stays valid across any
// number of writes and compactions. It is immutable: concurrent queries of
// the same procedure share one.
type QueryPlan struct {
	QueryName  string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // query strands surviving the size filter
	weights    []float64
	strands    []*strand.Strand
}

// Bytes estimates the memory the plan keeps alive, for a holder with a byte
// budget. A strand's statements are the expression trees its canonical key
// prints; 12 bytes of heap per byte of key is their measured ratio on the
// corpus generator's procedures, rounded up.
func (pl *QueryPlan) Bytes() int {
	n := 128
	for _, s := range pl.strands {
		n += 128 + 12*len(s.CanonicalKey())
	}
	return n
}

// Plan runs stages 1–2 on a query procedure.
func (db *DB) Plan(ctx context.Context, p *asm.Proc) (*QueryPlan, error) {
	// Stage 1: decompose — disassembly → CFG → lift → strands.
	_, spDec := telemetry.StartSpan(ctx, "decompose")
	kept, nBlocks, err := decompose(p, db.opts)
	db.observeStage("decompose", spDec.End())
	if err != nil {
		return nil, fmt.Errorf("core: query %s: %w", p.Name, err)
	}
	spDec.SetAttr("blocks", float64(nBlocks))
	spDec.SetAttr("strands", float64(len(kept)))
	pl := &QueryPlan{QueryName: p.Name, Source: p.Source, NumBlocks: nBlocks, NumStrands: len(kept)}

	// Stage 2: prepare — deduplicate query strands (multiplicity becomes
	// LES weight). The dedup order is first-seen, which is deterministic
	// in the query text — every shard handed the same query builds the
	// same strand order, so a coordinator can merge by index. Verifier
	// preparation is not done here: stage 3 prepares a strand only once
	// it has found a pair the strand must be verified against.
	_, spPrep := telemetry.StartSpan(ctx, "prepare")
	qIdx := map[string]int{}
	for _, s := range kept {
		key := s.CanonicalKey()
		if i, ok := qIdx[key]; ok {
			pl.weights[i]++
			continue
		}
		qIdx[key] = len(pl.strands)
		pl.strands = append(pl.strands, s)
		pl.weights = append(pl.weights, 1)
	}
	spPrep.SetAttr("unique_strands", float64(len(pl.strands)))
	db.observeStage("prepare", spPrep.End())
	return pl, nil
}

// TracePlanReuse stands in for Plan when the caller runs a plan kept from
// an earlier call: it records the two stages as spans of no work, marked
// plan_memo_hit, so a query's trace and flight record name four stages
// however its plan was come by. The stage histograms are left alone: they
// count the decompositions that ran.
func (db *DB) TracePlanReuse(ctx context.Context) {
	for _, stage := range queryStages[:2] {
		_, sp := telemetry.StartSpan(ctx, stage)
		sp.SetAttr("plan_memo_hit", 1)
		sp.End()
	}
}

// RunPlan runs stages 3–4 of a planned query and finalizes it:
// RunPlanPartial plus QueryPartial.Finalize, the code a gateway runs over
// merged shard partials, which is what makes a merge provably
// score-identical to a single node.
func (db *DB) RunPlan(ctx context.Context, pl *QueryPlan) (*Report, error) {
	qp, err := db.RunPlanPartial(ctx, pl)
	if err != nil {
		return nil, err
	}
	rep := qp.Finalize()
	qp.Release()
	return rep, nil
}

// RunPlanPartial runs the planned query up to (but excluding) scoring:
// the VCP pair loop, each query strand's H0 histogram and the per-target
// best VCP per query strand. The returned QueryPartial carries everything
// a coordinator needs to merge this shard's view with others' and produce
// scores bit-identical to a single node holding the union corpus — see
// QueryPartial for the exactness argument.
func (db *DB) RunPlanPartial(ctx context.Context, pl *QueryPlan) (*QueryPartial, error) {
	qp, _, err := db.partialQuery(ctx, pl, db.corpus.Load())
	return qp, err
}

// partialQuery is the pipeline from the plan on, run against one corpus
// version qc, so a live write landing mid-query can never mix two corpus
// states. rows are the query's VCP rows (rows[i][j] = VCP(query strand i,
// unique strand j), read-only), which stay in the engine: only what is
// computed from them leaves.
func (db *DB) partialQuery(ctx context.Context, pl *QueryPlan, qc *corpus) (*QueryPartial, [][]float64, error) {
	db.mQueries.Inc()
	qs := pl.strands
	qp := &QueryPartial{
		QueryName:  pl.QueryName,
		Source:     pl.Source,
		NumBlocks:  pl.NumBlocks,
		NumStrands: pl.NumStrands,
		SigmoidK:   db.opts.SigmoidK,
		Weights:    pl.weights,
	}

	// Stage 3: vcp — for each unique query strand, the row of VCP(sq, st)
	// against every unique target strand: the one direction S-LOG and Esh
	// read (§3.3). Rows come from the row cache where it has them; the
	// pairs it does not know are verified (see vcpRows).
	_, spVCP := telemetry.StartSpan(ctx, "vcp")
	rows, cached, err := db.vcpRows(qs, spVCP, qc)
	db.observeStage("vcp", spVCP.End())
	if err != nil {
		return nil, nil, err
	}

	// Stage 4: score — the shard-local reductions, exact under sharding:
	// per-target best-VCP is a max over the target's own strands, and a
	// strand's H0 histogram counts each column at its corpus multiplicity
	// (a dead strand's is 0, so it counts nowhere).
	_, spScore := telemetry.StartSpan(ctx, "score")
	qp.H0 = make([]*stats.H0Accumulator, len(qs))
	for i, row := range rows {
		if qp.H0[i] = cached[i].h0At(qc.countsVer); qp.H0[i] != nil {
			continue
		}
		h0 := new(stats.H0Accumulator)
		for j, v := range row {
			h0.Add(v, qc.counts[j])
		}
		qp.H0[i] = h0
		if cached[i] != nil {
			cached[i].h0.Store(&rowH0{qc.countsVer, h0})
		}
	}

	// Tombstoned targets are masked here rather than at row level: the
	// surviving targets in add order are exactly the target order a
	// from-scratch rebuild of the live corpus would produce.
	qp.DrawTargets(len(qc.targets), len(qs))
	live := qp.Targets[:0]
	for ti, t := range qc.targets {
		if qc.live != nil && !qc.live[ti] {
			continue
		}
		best := qp.Targets[len(live)].MaxVCP // the slot this append fills
		for i, row := range rows {
			for _, j := range t.strandIdx {
				if row[j] > best[i] {
					best[i] = row[j]
				}
			}
		}
		live = append(live, PartialScore{Target: t, MaxVCP: best})
	}
	qp.Targets = live
	qp.DataGeneration = qc.Generation
	qp.PendingWrites = qc.PendingWrites
	spScore.SetAttr("targets", float64(len(qp.Targets)))
	db.observeStage("score", spScore.End())
	return qp, rows, nil
}

// maxPairChunk caps the number of pairs one work-queue item covers, so
// the per-chunk bookkeeping stays noise next to the verifier calls inside.
// Below the cap the chunk size adapts to the workload — see pairChunk.
const maxPairChunk = 64

// minFanOut is the number of pairs to verify below which the calling
// goroutine drains the queue alone: a few dozen verifier calls are shorter
// than the wait for a second core on a machine that is serving writes too,
// so a query that extends its rows by the strands of one new target costs
// the same whatever else is running.
const minFanOut = 32

// pairChunk picks the work-queue chunk size for n pairs to verify: small
// enough that even a few pairs cut into several chunks per worker (so the
// machine saturates on the pair population, not the strand count), capped
// at maxPairChunk for large corpora.
func pairChunk(n, workers int) int {
	chunk := (n + 4*workers - 1) / (4 * workers)
	if chunk < 1 {
		chunk = 1
	}
	return min(chunk, maxPairChunk)
}

// vcpRowState carries one query strand through stage 3: the row the cache
// held at entry, the rows handed to stage 4, and — when the cache did not
// know every pair — the verify list and the private successor row the
// results are published in.
type vcpRowState struct {
	s    *strand.Strand
	base *vcpRow   // the cached row at entry (nil: none, or another epoch's)
	next *vcpRow   // private successor of base; nil when nothing new was learnt
	vals []float64 // n wide; aliases base or next, read-only once published
	// verify lists the columns whose pair needs the verifier; the pair
	// queue is cut over these lists, so a chunk is all verifier work. q is
	// prepared only when the list is non-empty.
	verify []int32
	q      *vcp.Prepared
	rs     rowStats
}

// vcpRows produces VCP(q, u) for every (query strand q, unique target
// strand u) pair of the query's corpus view, in four steps:
//
//  1. fetch every query strand's cached row in one visit to the cache;
//  2. plan: a complete row is handed out as it is — no copy, no sketch, no
//     per-pair test; otherwise only the columns the row does not know go
//     through the cheap filters (dead, identical, forward injectability,
//     size window), and what survives is the strand's verify list;
//  3. verify: prepare the strands that have a list, cut the lists into
//     chunks and drain them with min(Workers, chunks) goroutines — none
//     when every list is empty;
//  4. publish the successor rows, and flush each row's counts into sp (the
//     shared vcp stage span) and the DB counters.
//
// The returned rows may be cached rows shared with other queries: they are
// read-only (DESIGN §10.7). cached[i] is the cached row rows[i] is, if it
// is one, and nil otherwise.
func (db *DB) vcpRows(qs []*strand.Strand, sp *telemetry.Span, qc *corpus) (rows [][]float64, cached []*vcpRow, err error) {
	states := make([]vcpRowState, len(qs))
	for i, s := range qs {
		states[i].s = s
	}
	db.lookupRows(states, qc.rowEpoch)

	var todo []int32
	toVerify := 0
	for i := range states {
		st := &states[i]
		todo = db.planScan(st, qc, todo[:0])
		toVerify += len(st.verify)
	}

	// The deferred half of stage 2: only a strand that meets a verifier
	// is prepared. Its γ-fingerprint memo is charged to the DB's ceiling
	// and dies with the query: a target strand is only ever the matched
	// side of a pair, an Indexed with no memo to charge.
	var prepared []*vcp.Prepared
	defer func() { db.memo.Release(prepared...) }()
	var chunks []verifyRange
	size := pairChunk(toVerify, db.opts.Workers)
	for i := range states {
		st := &states[i]
		if len(st.verify) == 0 {
			continue
		}
		st.q = db.prepare(st.s)
		prepared = append(prepared, st.q)
		db.mPrepares.Inc()
		pre, tot := st.q.InstrCounts()
		db.mPrefixInstrs.Add(uint64(pre))
		db.mKernelInstrs.Add(uint64(tot))
		if st.q.Err() != nil {
			return nil, nil, fmt.Errorf("core: prepare query strand: %w", st.q.Err())
		}
		for lo := 0; lo < len(st.verify); lo += size {
			chunks = append(chunks, verifyRange{row: i, lo: lo, hi: min(lo+size, len(st.verify))})
		}
	}
	workers := min(db.opts.Workers, len(chunks))
	if toVerify < minFanOut {
		workers = min(workers, 1)
	}
	sp.SetAttr("workers", float64(workers))
	if workers > 0 {
		db.verifyChunks(states, chunks, workers, qc)
	}

	rows = make([][]float64, len(qs))
	cached = make([]*vcpRow, len(qs))
	for i := range states {
		st := &states[i]
		rows[i] = st.vals
		if st.rs.state == rowComplete && st.next == nil {
			cached[i] = st.base // handed out as it is
		}
		db.flushRowStats(st.rs, sp)
	}
	db.publishRows(states, qc.rowEpoch)
	return rows, cached, nil
}

// sizeRatio resolves the configured §5.5 size window.
func (db *DB) sizeRatio() float64 {
	if r := db.opts.VCP.SizeRatio; r > 0 {
		return r
	}
	return vcp.Default().SizeRatio
}

// planScan resolves a row as far as it can without a verifier, by stage
// 3's one candidate rule: identical key, then forward injectability, then
// the §5.5 size window. todo is scratch, returned for reuse.
func (db *DB) planScan(st *vcpRowState, qc *corpus, todo []int32) []int32 {
	n := len(qc.uniq)
	todo = st.base.unknown(n, qc.counts, todo)
	row := st.base
	switch {
	case row == nil:
		st.rs.state = rowAbsent
	case len(todo) == 0 && len(row.vals) >= n:
		st.rs.state = rowComplete
	default:
		// Columns still owed — or none, but the row predates live adds
		// whose strands have since died, and is simply too short.
		st.rs.state = rowPartial
	}
	if st.rs.state != rowComplete {
		row = st.base.grow(n)
		st.next = row
		key, ratio := st.s.CanonicalKey(), db.sizeRatio()
		// A pair whose forward direction cannot inject is skipped: its VCP
		// is exactly 0.
		qn := sketch.Counts(st.s)
		for _, j32 := range todo {
			j := int(j32)
			u := qc.uniq[j]
			switch {
			case u.Key() == key:
				row.vals[j] = 1.0 // identical strands match exactly
				row.set(j, kindIdentical)
			case !qn.Injects(qc.sums[j]):
				row.set(j, kindSkipped)
			case !vcp.SizeCompatible(st.s, u.S, ratio):
				row.set(j, kindPruned)
			default:
				// Known once the queue has drained, which is before
				// anyone else can see the row.
				row.set(j, kindVerified)
				st.verify = append(st.verify, j32)
			}
		}
	}
	st.vals = row.vals[:n:n]
	st.rs.pairs = n
	st.rs.identical = row.tally[kindIdentical]
	st.rs.lshSkipped = row.tally[kindSkipped]
	st.rs.pruned = row.tally[kindPruned]
	st.rs.misses = len(st.verify)
	st.rs.hits = row.tally[kindVerified] - st.rs.misses
	return todo
}

// verifyRange is one item of the pair queue: verify[lo:hi] of a row.
type verifyRange struct{ row, lo, hi int }

// verifyChunks drains the pair queue with the given number of workers
// and folds each chunk's work into its row's stats. Parallelism comes from
// the pair population rather than the strand count: a query with fewer
// strands than workers leaves no core idle, and one with thousands of
// strands spawns no goroutine per strand. A single worker is the calling
// goroutine itself.
//
// Each worker owns one evaluator for the whole drain, so the γ search's
// scratch — the evaluator's kernel included — belongs to the worker and is
// sized by the largest strand it meets, not by how many. It stays on the
// chunk's query strand: once a memo miss has bound its kernel to that
// strand's program, the binding — and its evaluated γ-invariant prefix —
// persists until the worker moves to another row. (Evaluators are not
// concurrency-safe, which is why they are per worker.)
func (db *DB) verifyChunks(states []vcpRowState, chunks []verifyRange, workers int, qc *corpus) {
	work := make([]rowStats, len(chunks))
	var next atomic.Int64
	drain := func() {
		var ev *vcp.Evaluator
		defer func() {
			if ev != nil {
				ev.Close()
			}
		}()
		row := -1
		for {
			c := int(next.Add(1)) - 1
			if c >= len(chunks) {
				return
			}
			ch := chunks[c]
			st := &states[ch.row]
			switch {
			case ev == nil:
				ev = db.newEval(st.q, db.opts.VCP)
			case ch.row != row:
				ev.Reset(st.q)
			}
			row = ch.row
			work[c] = verifyChunk(st, qc, ch.lo, ch.hi, ev)
		}
	}
	if workers == 1 {
		drain()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				drain()
			}()
		}
		wg.Wait()
	}
	for c, ch := range chunks {
		states[ch.row].rs.addWork(work[c])
	}
}

// verifyChunk runs the verifier over the pairs verify[lo:hi] of one row and
// returns the work it did. ev is bound to the row's query strand. Chunks of
// a row run on concurrent workers and write disjoint columns of a row
// nobody else can see yet.
func verifyChunk(st *vcpRowState, qc *corpus, lo, hi int, ev *vcp.Evaluator) rowStats {
	var rs rowStats
	for _, j := range st.verify[lo:hi] {
		v, vst := ev.Compute(qc.uniq[j])
		rs.calls++
		rs.gamma += vst.Correspondences
		rs.kernelNanos += vst.KernelNanos
		rs.gammaB += vst.Batches
		rs.gammaRows += vst.BatchRows
		rs.gammaSlots += vst.BatchSlots
		rs.memoHits += vst.MemoHits
		rs.memoMisses += vst.MemoMisses
		st.vals[j] = v
	}
	return rs
}
