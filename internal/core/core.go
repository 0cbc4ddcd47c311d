// Package core is the Esh engine: it indexes a database of binary target
// procedures (disassembly → CFG → lifting → strand decomposition →
// verifier preparation) and answers similarity queries, producing the
// ranked GES scores the paper's evaluation is built on, for the full
// method and for the S-VCP / S-LOG sub-method decomposition of §6.2.
package core

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/fifo"
	"repro/internal/lift"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// Prefilter modes: which candidate prefilter runs before the §5.5
// size-ratio window in the VCP pair loop.
const (
	// PrefilterOff disables prefiltering: every (query strand, target
	// strand) pair reaches the size window. The zero Options value and
	// the empty string select this mode.
	PrefilterOff = "off"
	// PrefilterLSH gates pairs through the sketch index (package
	// sketch). Its sound core skips pairs whose typed input counts
	// make VCP provably zero in both directions, and computes only the
	// live direction of half-dead pairs — rankings stay byte-identical
	// to PrefilterOff. An opt-in heuristic tier (LSHMinContainment)
	// additionally requires an LSH band collision or an estimated
	// feature-containment level, trading a small measured recall loss
	// for a larger skip rate.
	PrefilterLSH = "lsh"
)

// NormalizePrefilter maps a user-facing mode string to a canonical
// value, rejecting unknown modes.
func NormalizePrefilter(mode string) (string, error) {
	switch mode {
	case "", PrefilterOff:
		return PrefilterOff, nil
	case PrefilterLSH:
		return PrefilterLSH, nil
	}
	return "", fmt.Errorf("core: unknown prefilter mode %q (off, lsh)", mode)
}

// Retrieval modes: how stage 3 finds the candidate target strands for
// each query strand.
const (
	// RetrievalScan walks every unique target strand per query strand,
	// consulting the prefilter per pair. The zero Options value and the
	// empty string select this mode; per-query cost grows linearly with
	// the corpus.
	RetrievalScan = "scan"
	// RetrievalProbe is the heuristic tier's stage 3: with
	// LSHMinContainment > 0 it probes the banded-LSH retrieval table
	// (package sketch, RetrievalIndex) for each query strand's candidate
	// set — band-bucket collisions, a subset of the scan-mode heuristic
	// rule — and runs injectability, the size window, and the verifier
	// only on retrieved pairs, so per-query cost becomes roughly
	// independent of corpus size. At sound settings (LSHMinContainment
	// == 0) it selects nothing: the sound candidate set is every
	// injectability-live strand, a constant fraction of the corpus no
	// index makes sublinear, so the engine scans and no table exists.
	RetrievalProbe = "probe"
)

// NormalizeRetrieval maps a user-facing retrieval mode string to a
// canonical value, rejecting unknown modes.
func NormalizeRetrieval(mode string) (string, error) {
	switch mode {
	case "", RetrievalScan:
		return RetrievalScan, nil
	case RetrievalProbe:
		return RetrievalProbe, nil
	}
	return "", fmt.Errorf("core: unknown retrieval mode %q (scan, probe)", mode)
}

// Options configures the engine.
type Options struct {
	// VCP holds the verifier and §5.5 heuristic settings.
	VCP vcp.Config
	// Workers bounds query and load parallelism; 0 selects GOMAXPROCS.
	// It is a deployment setting: snapshots do not carry it.
	Workers int
	// SigmoidK overrides the Esh sigmoid steepness (0 = paper's k=10);
	// it exists for the k-ablation experiment.
	SigmoidK float64
	// PathLen, when >= 2, additionally decomposes procedures with at
	// most PathMaxBlocks basic blocks into strands over control-flow
	// paths of PathLen blocks — the paper's §6.6 mitigation for small
	// procedures whose individual blocks carry no significant strands.
	PathLen int
	// PathMaxBlocks bounds the path explosion (0 selects 12).
	PathMaxBlocks int
	// Prefilter selects the candidate prefilter consulted before the
	// size-ratio window: PrefilterOff ("" or "off") or PrefilterLSH
	// ("lsh").
	Prefilter string
	// LSHBands and LSHRows shape the MinHash signature of the sketch
	// prefilter (0 selects sketch.DefaultBands / sketch.DefaultRows).
	LSHBands int
	LSHRows  int
	// LSHMinContainment, when > 0, enables the heuristic tier of the
	// lsh prefilter (see sketch.Config.MinContainment;
	// sketch.SuggestedMinContainment is the calibrated setting). The
	// default 0 keeps the prefilter sound: rankings are byte-identical
	// to prefilter-off.
	LSHMinContainment float64
	// Retrieval selects the heuristic tier's stage-3 candidate source:
	// RetrievalScan ("" or "scan") or RetrievalProbe ("probe"). It takes
	// effect with LSHMinContainment > 0 only; a probing database builds
	// its table when it is loaded, or on its first query when it was
	// filled by AddTarget.
	Retrieval string
}

// memoBudgetBytes is the one budget every γ-fingerprint memo in a DB is
// charged to (vcp.MemoPool): the indexed strands' memos, which persist
// across queries, and each in-flight query's own, which are released
// when it returns. It is a constant, not a setting: past the corpus's
// working set more budget buys nothing, below it the cost is
// re-evaluation, never a different answer (DESIGN §10.6; CHANGES.md has
// the measured budget-vs-qps curve this value was read off).
const memoBudgetBytes = 128 << 20

// rowCachePairs is the row cache's budget in row entries (the sum of its
// rows' widths: one entry per unique target strand per cached query
// strand). At 16 bytes and three bits an entry the ceiling is 32.75 MiB; a
// constant for the same reason as memoBudgetBytes — below a workload's hot
// set the cost is re-verification, never a different answer.
const rowCachePairs = 1 << 21

// retrievalMaxDelta bounds how many live-written strands the probe path
// overlays on the immutable retrieval table before a write rebuilds it:
// a few hundred overlay strands cost microseconds per probe, far below
// one verifier call, while keeping write-time table rebuilds rare.
const retrievalMaxDelta = 256

// Target is one indexed procedure.
type Target struct {
	Name       string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // strands surviving the minimum-size filter
	strandIdx  []int
	// strandMult[k] is how many times strandIdx[k] occurs in this
	// target (strandIdx is deduplicated). Σ strandMult == NumStrands,
	// and summing per-target multiplicities over all targets
	// reconstructs the corpus-wide counts — which is what makes a
	// corpus exactly decomposable into shards.
	strandMult []int
}

// ShardInfo identifies a snapshot's position within a sharded corpus: a
// corpus split by eshcorpus -save-shards produces Count snapshots, each
// carrying its shard ID and the manifest generation it belongs to, so a
// gateway can refuse to scatter a query across mismatched fleets. The
// zero value means "unsharded" (Count == 0).
type ShardInfo struct {
	ID         int
	Count      int
	Generation string
}

// Sharded reports whether the info describes a shard of a split corpus.
func (si ShardInfo) Sharded() bool { return si.Count > 0 }

// DB is an indexed target database. Create with NewDB, populate with
// AddTarget, then issue Query calls (Query is safe for concurrent use;
// AddTarget is not). The configuration is decided before the DB exists
// and never changes: opts and sketchCfg are written once, by NewDB.
type DB struct {
	opts  Options
	shard ShardInfo

	// newEval builds the evaluator behind every verifier call of the
	// pair loop: vcp.NewEvaluator. Tests in this package swap in a
	// reference evaluator; nothing outside it can.
	newEval func(*vcp.Prepared, vcp.Config) *vcp.Evaluator

	// memo is the byte budget shared by the γ-fingerprint memos of every
	// strand this DB prepares (see prepare); tests in this package shrink
	// it before indexing.
	memo *vcp.MemoPool

	// cfgMu guards the sketch state (sums, sketchIdx, retr) and the
	// corpus itself (uniq, counts, targets, total, live, h0Order,
	// generation) against live writes racing in-flight queries. Queries
	// take one RLock at entry to snapshot a consistent view; mutators
	// take the write lock for the swap. AddTarget still mutates without
	// the lock — it is documented as not concurrency-safe (bulk
	// indexing).
	cfgMu sync.RWMutex

	// writeMu serializes the live write path (ApplyAdd, ApplyRemove,
	// Replay*, Compact), and orders strictly before cfgMu: writers
	// validate and journal under writeMu alone (queries keep flowing),
	// then apply in memory under a brief cfgMu write lock. Compact holds writeMu across snapshot
	// persistence, freezing writers but never readers.
	writeMu sync.Mutex

	uniq    []*vcp.Prepared // unique strands across all targets
	counts  []int           // corpus multiplicity per unique strand
	byKey   map[string]int  // canonical key -> index in uniq
	targets []*Target
	total   int // Σ counts: |T|, the H0 denominator

	// Tombstone state. live[ti] is target ti's liveness; nil means "all
	// live" (the common, tombstone-free case — the bulk AddTarget path
	// never materializes it). h0Order, non-nil exactly when tombstones
	// exist, is the H0 iteration permutation: the surviving strands in
	// the first-seen order a from-scratch rebuild of the live targets
	// would assign, which is what keeps post-tombstone scores
	// bit-identical to that rebuild (float addition is order-
	// sensitive, so masking dead strands is not enough — see
	// QueryPartial.finalize). Both are copy-on-write: mutators install fresh
	// slices under cfgMu so snapshotted queries keep a stable view.
	live    []bool
	h0Order []int32
	// countsVer moves with every change of counts or h0Order: an H0
	// estimate stamped with it (vcpRow.h0) is good for as long as it stands.
	countsVer uint64

	// Write-path bookkeeping: the data generation (bumped by every
	// compaction), the WAL high-water mark (sequence of the last
	// applied record), pending live writes and tombstoned targets
	// since the last compaction, and the journal acknowledged writes
	// are logged to (nil: writes are memory-only, e.g. replay or
	// tests).
	generation    uint64
	walSeq        uint64
	pendingWrites int
	tombstones    int
	journal       Journal

	// Prefilter state: one sketch summary per unique strand (in uniq
	// order; MinHash signatures are persisted in snapshots, the rest
	// is recomputed cheaply) and the banded index over them.
	// Maintained unconditionally: it is cheap next to verifier
	// preparation, and snapshots persist the signatures whatever mode
	// the corpus was indexed under.
	sketchCfg sketch.Config
	sums      []sketch.Summary
	sketchIdx *sketch.Index

	// Retrieval state: the immutable probe table over sums. It exists
	// only under probeOn() — built at load, by the first probing query
	// or by a compaction, rebuilt by a write once more than retrMaxDelta
	// strands have arrived since (tests in this package shrink it) — and
	// is invalidated whenever sums are renumbered. sketchGen counts those
	// invalidations so a query whose corpus snapshot predates a rebuild
	// can detect it and build a private table instead of caching a
	// stale one.
	retr         *sketch.RetrievalIndex
	retrMaxDelta int
	sketchGen    uint64

	// markPool recycles the n-wide []bool scratch slices stage 3 uses
	// for prefilter candidate marking and probe deduplication, so a
	// query of many strands does not allocate one per strand.
	markPool sync.Pool

	// rows holds one dense row per query-strand key (rowcache.go): forward
	// and reverse VCP indexed by unique-strand number, each row charged its
	// width against rowCachePairs (tests in this package swap in a smaller
	// store). rowEpoch names the strand numbering the rows are indexed by;
	// only a renumbering Compact moves it, holding cfgMu and mu both, so it
	// may be read under either (queries snapshot it under cfgMu and compare
	// under mu).
	mu       sync.Mutex
	rows     *fifo.Store[string, *vcpRow]
	rowEpoch uint64

	// Telemetry: a per-DB registry so multiple databases in one process
	// (tests, blue/green index swaps) do not share counters. Per-pair
	// work is accumulated locally in vcpRow and flushed here once per
	// query strand, so the hot loop never touches an atomic.
	reg            *telemetry.Registry
	stageHist      map[string]*telemetry.Histogram
	mCacheHits     *telemetry.Counter
	mCacheMisses   *telemetry.Counter
	mRows          [3]*telemetry.Counter // by rowState
	mPrepares      *telemetry.Counter
	mPairsPruned   *telemetry.Counter
	mPairsIdent    *telemetry.Counter
	mVerifierCalls *telemetry.Counter
	mGamma         *telemetry.Counter
	mQueries       *telemetry.Counter
	mLSHSkipped    *telemetry.Counter
	mDeadDirs      *telemetry.Counter
	mKernelNanos   *telemetry.Counter
	mMemoHits      *telemetry.Counter
	mMemoMisses    *telemetry.Counter
	mPrefixInstrs  *telemetry.Counter
	mKernelInstrs  *telemetry.Counter
	mGammaBatches  *telemetry.Counter
	mGammaRows     *telemetry.Counter
	hGammaOccup    *telemetry.Histogram
	mProbes        *telemetry.Counter
	mProbeCands    *telemetry.Counter
	mProbeSound    *telemetry.Counter
	hLSHCands      *telemetry.Histogram
	hSketchBuild   *telemetry.Histogram
	hProbeCands    *telemetry.Histogram
	hProbeLatency  *telemetry.Histogram
	hRetrBuild     *telemetry.Histogram
	mWritesAdd     *telemetry.Counter
	mWritesDel     *telemetry.Counter
	mCompactions   *telemetry.Counter
	hCompact       *telemetry.Histogram
}

// queryStages names the Query pipeline stages, in execution order. Each
// has a span in the per-query trace and a duration histogram in the
// DB's metrics registry.
var queryStages = [...]string{"decompose", "prepare", "vcp", "score"}

// NewDB returns an empty database. It panics on a mode string outside
// the Prefilter*/Retrieval* constants: modes that arrive from outside
// the program are validated where they enter (flag parsing, snapshot
// decoding), so only a caller's bug can get one this far.
func NewDB(opts Options) *DB {
	db, err := newDB(opts)
	if err != nil {
		panic(err)
	}
	return db
}

// newDB is NewDB reporting a bad mode as an error, for FromExport.
func newDB(opts Options) (*DB, error) {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	var err error
	if opts.Prefilter, err = NormalizePrefilter(opts.Prefilter); err != nil {
		return nil, err
	}
	if opts.Retrieval, err = NormalizeRetrieval(opts.Retrieval); err != nil {
		return nil, err
	}
	cfg := sketch.Config{
		Bands:          opts.LSHBands,
		Rows:           opts.LSHRows,
		MinContainment: opts.LSHMinContainment,
	}.Normalized()
	opts.LSHBands, opts.LSHRows = cfg.Bands, cfg.Rows
	db := &DB{
		opts:      opts,
		newEval:   vcp.NewEvaluator,
		memo:      vcp.NewMemoPool(memoBudgetBytes),
		byKey:     map[string]int{},
		rows:      fifo.New[string, *vcpRow](rowCachePairs, nil),
		sketchCfg: cfg,
		sketchIdx: sketch.NewIndex(cfg),

		retrMaxDelta: retrievalMaxDelta,
	}
	db.initMetrics()
	return db, nil
}

// NumTargets returns the number of indexed procedures (live and
// tombstoned alike; compaction drops the dead ones).
func (db *DB) NumTargets() int {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return len(db.targets)
}

// NumUniqueStrands returns the number of distinct strands in the index.
func (db *DB) NumUniqueStrands() int {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return len(db.uniq)
}

// TotalStrands returns |T|, the corpus strand count used for H0. It
// tracks the live corpus: tombstoning a target subtracts its strand
// multiplicities immediately.
func (db *DB) TotalStrands() int {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.total
}

// Targets returns the indexed targets (do not modify), including
// tombstoned ones. Use LiveTargets for the serving view.
func (db *DB) Targets() []*Target {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.targets
}

// LiveTargets returns the live (non-tombstoned) targets in add order —
// the view queries rank over (do not modify the targets).
func (db *DB) LiveTargets() []*Target {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	if db.live == nil {
		return db.targets
	}
	out := make([]*Target, 0, len(db.targets)-db.tombstones)
	for ti, t := range db.targets {
		if db.live[ti] {
			out = append(out, t)
		}
	}
	return out
}

// DataGeneration returns the compaction generation of the in-memory
// corpus (zero until the first compaction).
func (db *DB) DataGeneration() uint64 {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.generation
}

// WALSeq returns the journal high-water mark: the sequence number of
// the last write applied to the in-memory corpus (zero when none).
func (db *DB) WALSeq() uint64 {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.walSeq
}

// PendingWrites returns the number of live writes applied since the
// last compaction (or snapshot load).
func (db *DB) PendingWrites() int {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.pendingWrites
}

// Tombstones returns the number of tombstoned, not-yet-compacted
// targets.
func (db *DB) Tombstones() int {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	return db.tombstones
}

// Options returns the engine options the database was built with.
func (db *DB) Options() Options { return db.opts }

// Shard returns the snapshot's shard identity (zero when the corpus is
// unsharded).
func (db *DB) Shard() ShardInfo { return db.shard }

// SketchConfig returns the banding of the DB's sketch index.
func (db *DB) SketchConfig() sketch.Config { return db.sketchCfg }

// queryConfig is the per-query view of the state live writes mutate:
// one consistent snapshot taken at query entry, so a write landing
// mid-query never races the pair loop.
type queryConfig struct {
	sums      []sketch.Summary
	sketchIdx *sketch.Index
	retr      *sketch.RetrievalIndex
	sketchGen uint64

	// Corpus snapshot: live writes install fresh slices (counts, live,
	// h0Order) or append beyond our lengths (uniq, targets, sums), so
	// these headers stay internally consistent for the query's
	// lifetime. live == nil means every target is live; h0Order == nil
	// means H0 accumulates in index order (no tombstones).
	uniq       []*vcp.Prepared
	counts     []int
	targets    []*Target
	live       []bool
	h0Order    []int32
	countsVer  uint64
	generation uint64
	pending    int
	// rowEpoch is the strand numbering uniq is in (see DB.rowEpoch).
	rowEpoch uint64
}

func (db *DB) prefilterOn() bool { return db.opts.Prefilter == PrefilterLSH }

// probeOn reports whether stage 3 probes a retrieval table: the
// heuristic tier's loop, and the one condition under which a table is
// ever built.
func (db *DB) probeOn() bool {
	return db.opts.Retrieval == RetrievalProbe && db.sketchCfg.MinContainment > 0
}

func (db *DB) snapshotConfig() queryConfig {
	db.cfgMu.RLock()
	qc := queryConfig{
		sums:      db.sums,
		sketchIdx: db.sketchIdx, retr: db.retr, sketchGen: db.sketchGen,
		uniq: db.uniq, counts: db.counts, targets: db.targets,
		live: db.live, h0Order: db.h0Order, countsVer: db.countsVer,
		generation: db.generation, pending: db.pendingWrites,
		rowEpoch: db.rowEpoch,
	}
	db.cfgMu.RUnlock()
	if db.probeOn() && qc.retr == nil {
		qc.retr = db.retrievalFor(&qc)
	}
	return qc
}

// retrievalFor resolves the probe table for a query's corpus snapshot,
// building and caching it on first use. If the sketch state moved on
// between the snapshot and the build (a concurrent compaction or write),
// the shared cache is left alone and the query gets a private table over
// its own snapshot view, so the query still runs against one consistent
// corpus.
func (db *DB) retrievalFor(qc *queryConfig) *sketch.RetrievalIndex {
	db.cfgMu.Lock()
	// The length check matters under live writes: sums is append-only
	// within a sketch generation, so a write between the snapshot and
	// this build could leave db.sums longer than the query's uniq view —
	// a shared table built now would probe out of the query's range.
	if db.sketchGen == qc.sketchGen && len(db.sums) == len(qc.sums) {
		if db.retr == nil {
			db.retr = db.buildRetrieval(db.sums)
		}
		r := db.retr
		db.cfgMu.Unlock()
		return r
	}
	db.cfgMu.Unlock()
	return db.buildRetrieval(qc.sums)
}

// buildRetrieval builds a probe table over sums. Every table comes from
// here, so esh_retrieval_table_build_seconds counts them all.
func (db *DB) buildRetrieval(sums []sketch.Summary) *sketch.RetrievalIndex {
	start := time.Now()
	rx := sketch.BuildRetrieval(sums, db.sketchCfg)
	db.hRetrBuild.Observe(time.Since(start).Seconds())
	return rx
}

// getMark fetches an all-false scratch slice of length n from the pool.
func (db *DB) getMark(n int) []bool {
	if v := db.markPool.Get(); v != nil {
		if m := *(v.(*[]bool)); len(m) >= n {
			return m[:n]
		}
	}
	return make([]bool, n)
}

// putMark clears a scratch slice and returns it to the pool. The clear
// costs the same memset the old per-row allocation paid, without the
// garbage.
func (db *DB) putMark(m []bool) {
	m = m[:cap(m)]
	clear(m)
	db.markPool.Put(&m)
}

// rebuildSketches builds the summary table and LSH index over every
// unique strand of a snapshot being restored. Persisted signatures that
// match the configured geometry are adopted as-is; otherwise (geometry
// overridden at load) signatures are re-MinHashed. The rest of each
// summary (feature-set size, typed input counts) is always recomputed —
// those walks are cheap next to MinHashing, so they are not persisted.
func (db *DB) rebuildSketches(strands []ExportStrand) {
	start := time.Now()
	sums := make([]sketch.Summary, len(db.uniq))
	var wg sync.WaitGroup
	sem := make(chan struct{}, db.opts.Workers)
	for i, p := range db.uniq {
		wg.Add(1)
		go func(i int, s *strand.Strand) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// AdoptSignature re-MinHashes on length mismatch.
			sums[i] = sketch.AdoptSignature(s, strands[i].Sig, db.sketchCfg)
		}(i, p.S)
	}
	wg.Wait()
	idx := sketch.NewIndex(db.sketchCfg)
	for _, sum := range sums {
		idx.Add(sum)
	}
	db.sums = sums
	db.sketchIdx = idx
	db.invalidateRetrieval()
	db.hSketchBuild.Observe(time.Since(start).Seconds())
}

// invalidateRetrieval drops the probe table after the summaries
// change; the next probing query rebuilds it.
// Callers are AddTarget and FromExport (neither concurrency-safe).
func (db *DB) invalidateRetrieval() {
	db.retr = nil
	db.sketchGen++
}

// decompose runs the front half of the pipeline on one procedure and
// returns its strands that survive the minimum-size filter, plus the
// block count.
func decompose(p *asm.Proc, opts Options) ([]*strand.Strand, int, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, 0, err
	}
	lp, err := lift.LiftProc(g)
	if err != nil {
		return nil, 0, err
	}
	all := strand.FromProc(lp)
	if opts.PathLen >= 2 {
		limit := opts.PathMaxBlocks
		if limit <= 0 {
			limit = 12
		}
		if len(g.Blocks) <= limit {
			paths, err := lift.LiftPaths(g, opts.PathLen)
			if err != nil {
				return nil, 0, err
			}
			for _, pb := range paths {
				all = append(all, strand.FromBlock(p.Name, pb)...)
			}
		}
	}
	minVars := opts.VCP.MinVars
	if minVars <= 0 {
		minVars = vcp.Default().MinVars
	}
	var kept []*strand.Strand
	for _, s := range all {
		if s.NumVars() >= minVars {
			kept = append(kept, s)
		}
	}
	return kept, len(g.Blocks), nil
}

// prepare builds a strand's verifier preparation, its γ-fingerprint memo
// charged to the DB's budget.
func (db *DB) prepare(s *strand.Strand) *vcp.Prepared {
	p := vcp.Prepare(s, db.opts.VCP)
	db.memo.Attach(p)
	return p
}

// AddTarget indexes one target procedure.
func (db *DB) AddTarget(p *asm.Proc) error {
	kept, nBlocks, err := decompose(p, db.opts)
	if err != nil {
		return fmt.Errorf("core: index %s: %w", p.Name, err)
	}
	t := &Target{
		Name:       p.Name,
		Source:     p.Source,
		NumBlocks:  nBlocks,
		NumStrands: len(kept),
	}
	db.countsVer++
	pos := map[int]int{} // unique-strand index -> position in t.strandIdx
	for _, s := range kept {
		key := s.CanonicalKey()
		idx, ok := db.byKey[key]
		if !ok {
			prep := db.prepare(s)
			if prep.Err() != nil {
				return fmt.Errorf("core: prepare strand of %s: %w", p.Name, prep.Err())
			}
			pre, tot := prep.InstrCounts()
			db.mPrefixInstrs.Add(uint64(pre))
			db.mKernelInstrs.Add(uint64(tot))
			idx = len(db.uniq)
			db.uniq = append(db.uniq, prep)
			db.counts = append(db.counts, 0)
			db.byKey[key] = idx
			skStart := time.Now()
			sum := sketch.Summarize(s, db.sketchCfg)
			db.sums = append(db.sums, sum)
			db.sketchIdx.Add(sum)
			db.invalidateRetrieval()
			db.hSketchBuild.Observe(time.Since(skStart).Seconds())
		}
		db.counts[idx]++
		db.total++
		if k, dup := pos[idx]; dup {
			t.strandMult[k]++
		} else {
			pos[idx] = len(t.strandIdx)
			t.strandIdx = append(t.strandIdx, idx)
			t.strandMult = append(t.strandMult, 1)
		}
	}
	db.targets = append(db.targets, t)
	if db.live != nil {
		// Keep the tombstone mask and H0 order in step when bulk adds
		// are mixed with live writes (startup WAL replay after a dirty
		// snapshot).
		db.live = append(db.live, true)
		db.h0Order = db.computeH0Order()
	}
	return nil
}

// TargetScore is one row of a query result: the three method scores for
// one target, plus ground-truth provenance for evaluation.
type TargetScore struct {
	Target *Target
	SVCP   float64
	SLOG   float64
	GES    float64 // the full Esh score
}

// Score returns the score under the requested method.
func (ts TargetScore) Score(m stats.Method) float64 {
	switch m {
	case stats.SVCP:
		return ts.SVCP
	case stats.SLOG:
		return ts.SLOG
	default:
		return ts.GES
	}
}

// Report is the result of one query against the database.
type Report struct {
	QueryName  string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // query strands surviving the size filter
	// Results holds one entry per target, sorted by descending GES.
	Results []TargetScore
}

// Rank returns the results re-sorted by the given method's score
// (descending). The receiver is unchanged.
func (r *Report) Rank(m stats.Method) []TargetScore {
	out := make([]TargetScore, len(r.Results))
	copy(out, r.Results)
	sort.SliceStable(out, func(i, j int) bool { return out[i].Score(m) > out[j].Score(m) })
	return out
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
	// same row order, so a coordinator can merge rows by index. Verifier
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

// RunPlan runs stages 3–4 of a planned query and finalizes against the
// database's own corpus counts: RunPlanPartial plus finalize, the code a
// gateway runs over merged shard partials, which is what makes a merge
// provably score-identical to a single node.
func (db *DB) RunPlan(ctx context.Context, pl *QueryPlan) (*Report, error) {
	qc := db.snapshotConfig()
	qp, cached, err := db.partialQuery(ctx, pl, &qc)
	if err != nil {
		return nil, err
	}
	// Against the same snapshot the pair loop ran under: a live write
	// between the two would otherwise hand finalize counts that are longer
	// (or, post-tombstone, differently weighted) than the rows.
	return qp.finalize(qc.counts, qc.h0Order, cached, qc.countsVer), nil
}

// RunPlanPartial runs the planned query up to (but excluding) the
// corpus-wide H0 estimate: the VCP pair loop and the order-insensitive
// per-target reductions (best forward VCP per query strand, S-VCP). The
// returned QueryPartial carries everything a coordinator needs to merge
// this shard's view with others' and produce scores bit-identical to a
// single node holding the union corpus — see QueryPartial.Finalize for the
// exactness argument.
func (db *DB) RunPlanPartial(ctx context.Context, pl *QueryPlan) (*QueryPartial, error) {
	qc := db.snapshotConfig()
	qp, _, err := db.partialQuery(ctx, pl, &qc)
	return qp, err
}

// partialQuery is the pipeline from the plan on, shared by RunPlan and
// RunPlanPartial: both snapshot the configuration exactly once and run
// every stage — and, for RunPlan, finalization — against that view, so a
// live write landing mid-query can never mix two corpus states. cached is
// vcpRows's, for finalize.
func (db *DB) partialQuery(ctx context.Context, pl *QueryPlan, qc *queryConfig) (*QueryPartial, []*vcpRow, error) {
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

	// Stage 3: vcp — for each unique query strand, the VCP row against
	// every unique target strand, in both directions. The forward
	// direction VCP(sq, st) drives S-LOG and Esh; the reverse direction
	// VCP(st, sq) drives the paper's S-VCP definition (§6.2), which sums
	// over target strands. Rows come from the row cache where it has them;
	// the pairs it does not know are verified (see vcpRows).
	_, spVCP := telemetry.StartSpan(ctx, "vcp")
	if db.prefilterOn() {
		spVCP.SetAttr("prefilter_lsh", 1)
	} else {
		spVCP.SetAttr("prefilter_lsh", 0)
	}
	if db.probeOn() {
		spVCP.SetAttr("retrieval_probe", 1)
	} else {
		spVCP.SetAttr("retrieval_probe", 0)
	}
	rows, revRows, cached, err := db.vcpRows(qs, spVCP, qc)
	db.observeStage("vcp", spVCP.End())
	if err != nil {
		return nil, nil, err
	}
	qp.Rows = rows

	// Stage 4: score — the shard-local reductions. Both are exact under
	// sharding: per-target best-VCP is a max over the target's own
	// strands, and S-VCP sums maxRev over the target's own strands (a
	// strand shared between two targets contributes to each target's sum
	// on whichever shard holds that target, from rows computed against
	// the full query — so per-shard values equal single-node values).
	_, spScore := telemetry.StartSpan(ctx, "score")

	// maxRev[j]: the best any query strand contains target strand j.
	maxRev := make([]float64, len(qc.uniq))
	for i := range qs {
		for j, v := range revRows[i] {
			if v > maxRev[j] {
				maxRev[j] = v
			}
		}
	}

	// Tombstoned targets are masked here rather than at row level: the
	// surviving targets in add order are exactly the target order a
	// from-scratch rebuild of the live corpus would produce.
	qp.Targets = make([]PartialScore, 0, len(qc.targets))
	maxVCPs := make([]float64, len(qc.targets)*len(qs)) // every target's MaxVCP, one allocation
	for ti, t := range qc.targets {
		if qc.live != nil && !qc.live[ti] {
			continue
		}
		best := maxVCPs[:len(qs):len(qs)]
		maxVCPs = maxVCPs[len(qs):]
		for i, row := range rows {
			for _, j := range t.strandIdx {
				if row[j] > best[i] {
					best[i] = row[j]
				}
			}
		}
		svcp := 0.0
		for _, j := range t.strandIdx {
			svcp += maxRev[j]
		}
		qp.Targets = append(qp.Targets, PartialScore{Target: t, SVCP: svcp, MaxVCP: best})
	}
	qp.DataGeneration = qc.generation
	qp.PendingWrites = qc.pending
	spScore.SetAttr("targets", float64(len(qp.Targets)))
	db.observeStage("score", spScore.End())
	return qp, cached, nil
}

// maxPairChunk caps the number of pairs one work-queue item covers, so
// the per-chunk bookkeeping (two evaluators) stays noise next to the
// verifier calls inside. Below the cap the chunk size adapts to the
// workload — see pairChunk.
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
	s        *strand.Strand
	base     *vcpRow   // the cached row at entry (nil: none, or another epoch's)
	next     *vcpRow   // private successor of base; nil when nothing new was learnt
	fwd, rev []float64 // n wide; aliases base or next in scan mode, read-only then
	// verify lists the columns whose pair needs the verifier; the pair
	// queue is cut over these lists, so a chunk is all verifier work. q is
	// prepared only when the list is non-empty. sketched says qSum is
	// valid and the one-direction injectability test applies.
	verify   []int32
	q        *vcp.Prepared
	qSum     sketch.Summary
	sketched bool
	rs       rowStats
}

// vcpRows produces VCP(q, u) and VCP(u, q) for every (query strand q,
// unique target strand u) pair of the query's corpus view, in four steps:
//
//  1. fetch every query strand's cached row in one visit to the cache;
//  2. plan: a complete row is handed out as it is — no copy, no sketch, no
//     per-pair test; otherwise only the columns the row does not know go
//     through the cheap filters (dead, identical, prefilter, size window),
//     and what survives is the strand's verify list;
//  3. verify: prepare the strands that have a list, cut the lists into
//     chunks and drain them with min(Workers, chunks) goroutines — none
//     when every list is empty;
//  4. publish the successor rows, and flush each row's counts into sp (the
//     shared vcp stage span) and the DB counters.
//
// The returned rows may be cached rows shared with other queries: they are
// read-only (DESIGN §10.7). cached[i] is the cached row rows[i] is, if it
// is one.
func (db *DB) vcpRows(qs []*strand.Strand, sp *telemetry.Span, qc *queryConfig) (rows, revRows [][]float64, cached []*vcpRow, err error) {
	n := len(qc.uniq)
	states := make([]vcpRowState, len(qs))
	for i, s := range qs {
		states[i].s = s
	}
	db.lookupRows(states, qc.rowEpoch)

	probe := db.probeOn() && qc.retr != nil
	var scratch []bool // prefilter candidate marks / probe dedup
	if probe || db.prefilterOn() {
		scratch = db.getMark(n)
		defer db.putMark(scratch)
	}
	var todo []int32
	toVerify := 0
	for i := range states {
		st := &states[i]
		if probe {
			db.planProbe(st, qc, scratch)
		} else {
			todo = db.planScan(st, qc, scratch, todo[:0])
		}
		toVerify += len(st.verify)
	}

	// The deferred half of stage 2: only a strand that meets a verifier
	// is prepared. Its γ-fingerprint memo is charged to the DB's budget
	// and dies with the query; the target strands' stay warm for the next.
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
			return nil, nil, nil, fmt.Errorf("core: prepare query strand: %w", st.q.Err())
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
	revRows = make([][]float64, len(qs))
	cached = make([]*vcpRow, len(qs))
	for i := range states {
		st := &states[i]
		if probe && len(st.verify) > 0 {
			// A probe-mode row records verifier results only.
			st.next = st.base.grow(n)
			for _, j := range st.verify {
				st.next.fwd[j], st.next.rev[j] = st.fwd[j], st.rev[j]
				st.next.set(int(j), kindVerified)
			}
		}
		rows[i], revRows[i] = st.fwd, st.rev
		// Scan mode only: a probe-mode row is always the query's own.
		if !probe && st.rs.state == rowComplete && st.next == nil {
			cached[i] = st.base // handed out as it is
		}
		db.flushRowStats(st.rs, sp)
	}
	db.publishRows(states, qc.rowEpoch)
	return rows, revRows, cached, nil
}

// sizeRatio resolves the configured §5.5 size window.
func (db *DB) sizeRatio() float64 {
	if r := db.opts.VCP.SizeRatio; r > 0 {
		return r
	}
	return vcp.Default().SizeRatio
}

// planScan resolves a scan-mode row as far as it can without a verifier.
// The identical-key short circuit stays ahead of the prefilter so an exact
// structural match can never be lost to sketch noise. todo is scratch,
// returned for reuse.
func (db *DB) planScan(st *vcpRowState, qc *queryConfig, cand []bool, todo []int32) []int32 {
	n := len(qc.uniq)
	todo = st.base.unknown(n, qc.counts, todo)
	row := st.base
	switch {
	case row == nil:
		st.rs.state = rowAbsent
	case len(todo) == 0 && len(row.fwd) >= n:
		st.rs.state = rowComplete
	default:
		// Columns still owed — or none, but the row predates live adds
		// whose strands have since died, and is simply too short.
		st.rs.state = rowPartial
	}
	// A row that learnt a value while its strand was live keeps it when
	// the strand dies. No score reads a dead column (h0Order lists live
	// strands only and stage 4 walks live targets' strand lists), but
	// QueryPartial.Rows is handed to callers and must not depend on what
	// the cache happened to know: the first query to meet such a row
	// forgets its dead columns in the successor it publishes, and every
	// later one is handed that row as it is. (A forgotten column is
	// verified again if a re-add brings the strand back.)
	stale := qc.live != nil && row.showsDead(qc.counts)
	if st.rs.state != rowComplete || stale {
		row = st.base.grow(n)
		st.next = row
		if stale {
			for j := range row.fwd[:n] {
				if qc.counts[j] == 0 && row.has(j) {
					row.forget(j)
				}
			}
		}
		key, ratio := st.s.CanonicalKey(), db.sizeRatio()
		// With the prefilter on, everything unmarked is skipped: pairs
		// that are injectability-dead in both directions, plus — with the
		// heuristic tier enabled — pairs the LSH/containment tests
		// consider dissimilar.
		if db.prefilterOn() && len(todo) > 0 {
			st.qSum, st.sketched = sketch.Summarize(st.s, db.sketchCfg), true
			qc.sketchIdx.CandidatesAmong(st.qSum, todo, cand)
		}
		for _, j32 := range todo {
			j := int(j32)
			u := qc.uniq[j]
			switch {
			case u.Key() == key:
				row.fwd[j], row.rev[j] = 1.0, 1.0 // identical strands match exactly
				row.set(j, kindIdentical)
			case st.sketched && !cand[j]:
				row.set(j, kindSkipped)
			case !vcp.SizeCompatible(st.s, u.S, ratio): // symmetric: gates both directions
				row.set(j, kindPruned)
			default:
				// Known once the queue has drained, which is before
				// anyone else can see the row.
				row.set(j, kindVerified)
				st.verify = append(st.verify, j32)
			}
			if st.sketched {
				cand[j] = false // leave the pooled marks clear
			}
		}
	}
	st.fwd, st.rev = row.fwd[:n:n], row.rev[:n:n]
	st.rs.pairs = n
	st.rs.lshOn = db.prefilterOn()
	st.rs.identical = row.tally[kindIdentical]
	st.rs.lshSkipped = row.tally[kindSkipped]
	st.rs.pruned = row.tally[kindPruned]
	st.rs.misses = len(st.verify)
	st.rs.hits = row.tally[kindVerified] - st.rs.misses
	return todo
}

// planProbe probes the retrieval table for the row's candidates and runs
// the cheap filters over them; everything outside the candidate list is
// never touched (its entries stay zero, exactly like a scan-mode prefilter
// skip), so the work stays sublinear in the corpus. The cached row is
// consulted per surviving candidate and the output row is private:
// a candidate set can shrink when the table is rebuilt at heuristic
// settings, and a column outside it must read zero whatever the cache
// knows.
func (db *DB) planProbe(st *vcpRowState, qc *queryConfig, scratch []bool) {
	n := len(qc.uniq)
	st.qSum, st.sketched = sketch.Summarize(st.s, db.sketchCfg), true
	start := time.Now()
	cands, sound := qc.retr.Probe(st.qSum, scratch, nil)
	// Delta overlay: strands written live since the table was built
	// (sketch.RetrievalIndex.ProbeDelta has the contract).
	cands, deltaSound := qc.retr.ProbeDelta(st.qSum, qc.sums[:n], qc.counts, cands)
	st.rs.probeNanos = time.Since(start).Nanoseconds()
	st.rs.probeOn = true
	st.rs.probeCands = len(cands)
	st.rs.soundCands = sound + deltaSound
	st.rs.pairs = len(cands)

	vals := make([]float64, 2*n)
	st.fwd, st.rev = vals[:n:n], vals[n:]
	key, ratio := st.s.CanonicalKey(), db.sizeRatio()
	for _, j32 := range cands {
		j := int(j32)
		// Dead strands (every owning target tombstoned) are skipped
		// before any work — including the identical short circuit — so
		// scan and probe hand the verifier the same live pair set.
		if qc.counts[j] == 0 {
			continue
		}
		u := qc.uniq[j]
		switch {
		case u.Key() == key:
			st.fwd[j], st.rev[j] = 1.0, 1.0
			st.rs.identical++
		case !vcp.SizeCompatible(st.s, u.S, ratio):
			st.rs.pruned++
		case st.base.has(j):
			st.fwd[j], st.rev[j] = st.base.fwd[j], st.base.rev[j]
			st.rs.hits++
		default:
			st.verify = append(st.verify, j32)
		}
	}
	st.rs.misses = len(st.verify)
	switch {
	case st.base == nil:
		st.rs.state = rowAbsent
	case len(st.verify) > 0:
		st.rs.state = rowPartial
	}
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
// Each worker owns two evaluators for the whole drain, so the γ search's
// scratch — each evaluator's kernel included — belongs to the worker and
// is sized by the largest strand it meets, not by how many. The forward
// one stays on the chunk's query strand: once a memo miss has bound its
// kernel to that strand's program, the binding — and its evaluated
// γ-invariant prefix — persists until the worker moves to another row.
// (Evaluators are not concurrency-safe, which is why they are per worker.)
// The reverse one is moved to each target strand in turn; its kernel is
// re-bound only if that strand's memo misses, which on a warm corpus it
// rarely does.
func (db *DB) verifyChunks(states []vcpRowState, chunks []verifyRange, workers int, qc *queryConfig) {
	work := make([]rowStats, len(chunks))
	var next atomic.Int64
	drain := func() {
		var fwdEval, revEval *vcp.Evaluator
		defer func() {
			if fwdEval != nil {
				fwdEval.Close()
				revEval.Close()
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
			case fwdEval == nil:
				fwdEval, revEval = db.newEval(st.q, db.opts.VCP), db.newEval(st.q, db.opts.VCP)
			case ch.row != row:
				fwdEval.Reset(st.q)
			}
			row = ch.row
			work[c] = verifyChunk(st, qc, ch.lo, ch.hi, fwdEval, revEval)
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

// verifyChunk runs the verifier, in both live directions, over the pairs
// verify[lo:hi] of one row and returns the work it did. fwdEval is bound
// to the row's query strand. Chunks of a row run on concurrent workers and
// write disjoint columns of a row nobody else can see yet.
func verifyChunk(st *vcpRowState, qc *queryConfig, lo, hi int, fwdEval, revEval *vcp.Evaluator) rowStats {
	q := st.q
	var rs rowStats
	count := func(vst vcp.Stats) {
		rs.calls++
		rs.gamma += vst.Correspondences
		rs.kernelNanos += vst.KernelNanos
		rs.gammaB += vst.Batches
		rs.gammaRows += vst.BatchRows
		rs.gammaSlots += vst.BatchSlots
		rs.memoHits += vst.MemoHits
		rs.memoMisses += vst.MemoMisses
	}
	for _, j := range st.verify[lo:hi] {
		u := qc.uniq[j]
		// With the prefilter on (or a probed candidate set), a candidate
		// pair can still be injectability-dead in ONE direction: that
		// direction's VCP is exactly 0 and its verifier call is skipped.
		fwdLive, revLive := true, true
		if st.sketched {
			uSum := qc.sums[j]
			fwdLive, revLive = st.qSum.Injects(uSum), uSum.Injects(st.qSum)
		}
		var fv, rv float64
		if fwdLive {
			var vst vcp.Stats
			fv, vst = fwdEval.Compute(u)
			count(vst)
		} else {
			rs.deadDirs++
		}
		if revLive {
			revEval.Reset(u)
			var vst vcp.Stats
			rv, vst = revEval.Compute(q)
			count(vst)
		} else {
			rs.deadDirs++
		}
		st.fwd[j], st.rev[j] = fv, rv
	}
	return rs
}
