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
	// RetrievalProbe probes the banded-LSH retrieval table (package
	// sketch, RetrievalIndex) for each query strand's candidate set and
	// runs injectability, the size window, and the verifier only on
	// retrieved pairs. At sound settings (LSHMinContainment == 0) the
	// probe returns exactly the injectability-live set, so rankings are
	// byte-identical to scan mode; with the heuristic tier enabled the
	// probe returns band-bucket collisions (a subset of the scan-mode
	// heuristic rule) and per-query cost becomes roughly independent of
	// corpus size.
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
	// VCPCachePairs bounds the cross-query VCP memo cache to roughly
	// this many cached strand-pair results, so a long-running server
	// does not grow without limit. 0 selects DefaultVCPCachePairs; a
	// negative value disables the bound. Eviction is FIFO over query
	// strands: the cache may transiently exceed the bound by one query
	// strand's row.
	VCPCachePairs int
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
	// Retrieval selects the stage-3 candidate source: RetrievalScan
	// ("" or "scan") or RetrievalProbe ("probe"). Under probe a loaded
	// snapshot adopts its persisted table (or rebuilds it); a database
	// filled by AddTarget builds the table on its first query.
	Retrieval string
	// RetrievalMaxDelta bounds how many live-written strands the probe
	// path may overlay on the immutable retrieval table before the
	// table is rebuilt eagerly at write time. Overlay strands are
	// tested per query strand with the sound injectability rule, so
	// correctness never depends on this knob — only the probe's
	// sublinearity does. 0 selects DefaultRetrievalMaxDelta; negative
	// defers every rebuild to compaction.
	RetrievalMaxDelta int
}

// DefaultVCPCachePairs is the default vcpCache bound: at 16 bytes per
// cached pair (plus key overhead) this keeps the steady-state cache in
// the low hundreds of MB even with long canonical keys.
const DefaultVCPCachePairs = 1 << 21

// memoBudgetBytes is the one budget every γ-fingerprint memo in a DB is
// charged to (vcp.MemoPool): the indexed strands' memos, which persist
// across queries, and each in-flight query's own, which are released
// when it returns. It is a constant, not a setting: past the corpus's
// working set more budget buys nothing, below it the cost is
// re-evaluation, never a different answer (DESIGN §10.8 has the measured
// budget-vs-qps curve this value was read off).
const memoBudgetBytes = 128 << 20

// DefaultRetrievalMaxDelta is the default Options.RetrievalMaxDelta: a
// few hundred overlay strands cost microseconds per probe, far below
// one verifier call, while keeping write-time table rebuilds rare.
const DefaultRetrievalMaxDelta = 256

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
	// FinalizeOrder). Both are copy-on-write: mutators install fresh
	// slices under cfgMu so snapshotted queries keep a stable view.
	live    []bool
	h0Order []int32

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

	// Retrieval state: the immutable probe table over sums, built
	// lazily (first probe query, RetrievalIndex, or snapshot adopt) and
	// invalidated whenever sums are renumbered. sketchGen counts those
	// invalidations so a query whose corpus snapshot predates a rebuild
	// can detect it and build a private table instead of caching a
	// stale one.
	retr      *sketch.RetrievalIndex
	sketchGen uint64

	// markPool recycles the n-wide []bool scratch slices stage 3 uses
	// for prefilter candidate marking and probe deduplication, so a
	// query of many strands does not allocate one per strand.
	markPool sync.Pool

	// vcpCache memoizes forward and reverse VCP by (query strand key,
	// target strand key). It is bounded by Options.VCPCachePairs with
	// FIFO eviction at query-strand granularity: cacheOrder records
	// query keys in insertion order, cachePairs counts cached pairs.
	mu         sync.Mutex
	vcpCache   map[string]map[string][2]float64
	cacheOrder []string
	cachePairs int

	// Telemetry: a per-DB registry so multiple databases in one process
	// (tests, blue/green index swaps) do not share counters. Per-pair
	// work is accumulated locally in vcpRow and flushed here once per
	// query strand, so the hot loop never touches an atomic.
	reg            *telemetry.Registry
	stageHist      map[string]*telemetry.Histogram
	mCacheHits     *telemetry.Counter
	mCacheMisses   *telemetry.Counter
	mCacheEvict    *telemetry.Counter
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
		vcpCache:  map[string]map[string][2]float64{},
		sketchCfg: cfg,
		sketchIdx: sketch.NewIndex(cfg),
	}
	db.initMetrics()
	return db, nil
}

// initMetrics builds the DB's metrics registry. Index-size gauge funcs
// take cfgMu.RLock: the live write path mutates those fields at serve
// time, so a scrape concurrent with ApplyAdd must see a consistent view.
func (db *DB) initMetrics() {
	reg := telemetry.NewRegistry()
	db.reg = reg
	db.stageHist = make(map[string]*telemetry.Histogram, len(queryStages))
	for _, st := range queryStages {
		db.stageHist[st] = reg.Histogram("esh_query_stage_seconds",
			"Wall time per query pipeline stage.", nil, "stage", st)
	}
	db.mQueries = reg.Counter("esh_engine_queries_total", "Queries answered by the engine.")
	db.mCacheHits = reg.Counter("esh_vcp_cache_hits_total", "VCP memo cache hits (pair results reused).")
	db.mCacheMisses = reg.Counter("esh_vcp_cache_misses_total", "VCP memo cache misses (pair results computed).")
	db.mCacheEvict = reg.Counter("esh_vcp_cache_evictions_total", "Query-strand rows evicted from the VCP cache.")
	db.mPairsPruned = reg.Counter("esh_vcp_pairs_pruned_total", "Strand pairs rejected by the size-ratio window before any verifier work.")
	db.mPairsIdent = reg.Counter("esh_vcp_pairs_identical_total", "Strand pairs short-circuited as structurally identical.")
	db.mVerifierCalls = reg.Counter("esh_verifier_calls_total", "vcp.Compute invocations (two per cache miss: forward and reverse).")
	db.mGamma = reg.Counter("esh_verifier_correspondences_total", "Input correspondences evaluated by the probabilistic verifier.")
	db.mLSHSkipped = reg.Counter("esh_lsh_pairs_skipped_total", "Strand pairs skipped by the sketch prefilter before any verifier work.")
	db.mDeadDirs = reg.Counter("esh_lsh_dead_directions_total", "Single verifier calls avoided because one direction of a live pair is provably zero (typed inputs cannot inject).")
	db.mKernelNanos = reg.Counter("esh_vcp_kernel_nanos_total", "Wall nanoseconds the γ loops spent inside the evaluation kernel (γ-fingerprint memo misses only; hits never reach it).")
	db.mMemoHits = reg.Counter("esh_vcp_memo_hits_total", "Enumerated correspondences whose fingerprints came from a strand's γ-fingerprint memo.")
	db.mMemoMisses = reg.Counter("esh_vcp_memo_misses_total", "Enumerated correspondences the memo did not hold: evaluated by the kernel, then stored.")
	reg.CounterFunc("esh_vcp_memo_evictions_total", "Strands whose γ-fingerprint memo was dropped to keep esh_vcp_memo_bytes within budget.", func() float64 {
		return float64(db.memo.Stats().Evictions)
	})
	reg.GaugeFunc("esh_vcp_memo_bytes", "Bytes held by γ-fingerprint memos (indexed strands plus in-flight queries); never above esh_vcp_memo_budget_bytes.", func() float64 {
		return float64(db.memo.Stats().Bytes)
	})
	reg.GaugeFunc("esh_vcp_memo_budget_bytes", "The fixed byte budget of the γ-fingerprint memos.", func() float64 {
		return float64(db.memo.Stats().Budget)
	})
	db.mPrefixInstrs = reg.Counter("esh_kernel_prefix_instrs_total", "γ-invariant prefix instructions across prepared strands (hoisted out of the γ loop by the batched kernel).")
	db.mKernelInstrs = reg.Counter("esh_kernel_instrs_total", "Total compiled instructions across prepared strands.")
	db.mGammaBatches = reg.Counter("esh_kernel_gamma_batches_total", "γ-batch kernel flushes (one suffix execution each; correspondences/batches is the mean rows per flush).")
	db.mGammaRows = reg.Counter("esh_kernel_gamma_batch_rows_total", "Correspondence rows carried by γ-batch kernel flushes: γ-fingerprint memo misses only (includes rows discarded uncounted after a perfect match or the cap).")
	db.hGammaOccup = reg.Histogram("esh_kernel_gamma_batch_occupancy",
		"Mean γ-batch fill fraction at flush, observed once per query strand row (memo-miss rows carried / (width × flushes)).",
		[]float64{0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0})
	db.hLSHCands = reg.Histogram("esh_lsh_candidate_set_size",
		"LSH candidate-set size per query strand (prefilter on).",
		[]float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000})
	db.hSketchBuild = reg.Histogram("esh_sketch_build_seconds",
		"Wall time spent computing MinHash sketches and LSH buckets (per target at index time, per rebuild at load time).", nil)
	db.mProbes = reg.Counter("esh_retrieval_probes_total", "Probe-mode candidate retrievals (one per query strand).")
	db.mProbeCands = reg.Counter("esh_retrieval_candidates_total", "Candidate target strands retrieved by probe-mode queries.")
	db.mProbeSound = reg.Counter("esh_retrieval_sound_candidates_total", "Injectability-live target strands for probe-mode query strands (the sound candidate set the heuristic tier's retrieval is a subset of; candidates/sound is the recall proxy).")
	db.hProbeCands = reg.Histogram("esh_retrieval_candidate_set_size",
		"Retrieved candidate-set size per probe-mode query strand.",
		[]float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000})
	db.hProbeLatency = reg.Histogram("esh_retrieval_probe_seconds",
		"Wall time per retrieval-table probe (one per probe-mode query strand).",
		[]float64{1e-6, 5e-6, 1e-5, 5e-5, 1e-4, 5e-4, 1e-3, 5e-3, 1e-2, 5e-2, 0.1})
	db.hRetrBuild = reg.Histogram("esh_retrieval_table_build_seconds",
		"Wall time per retrieval-table build (load under probe mode, lazy first probe, or a live write past the delta bound).", nil)
	reg.GaugeFunc("esh_lsh_prefilter_enabled", "1 when the LSH prefilter gates the VCP pair loop.", func() float64 {
		if db.prefilterOn() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("esh_retrieval_probe_enabled", "1 when stage 3 probes the retrieval table instead of scanning all targets.", func() float64 {
		if db.probeOn() {
			return 1
		}
		return 0
	})
	reg.GaugeFunc("esh_vcp_cache_pairs", "Strand-pair results currently cached.", func() float64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		return float64(db.cachePairs)
	})
	reg.GaugeFunc("esh_vcp_cache_query_strands", "Distinct query strands with cached rows.", func() float64 {
		db.mu.Lock()
		defer db.mu.Unlock()
		return float64(len(db.vcpCache))
	})
	reg.GaugeFunc("esh_vcp_cache_hit_ratio", "Lifetime VCP cache hit ratio.", func() float64 {
		h, m := db.mCacheHits.Value(), db.mCacheMisses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	reg.GaugeFunc("esh_index_targets", "Indexed target procedures.", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(len(db.targets))
	})
	reg.GaugeFunc("esh_index_unique_strands", "Distinct strands in the index.", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(len(db.uniq))
	})
	reg.GaugeFunc("esh_index_total_strands", "Corpus strand count |T| (H0 denominator).", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(db.total)
	})
	db.mWritesAdd = reg.Counter("esh_writes_applied_total", "Live corpus writes applied in memory.", "op", "add")
	db.mWritesDel = reg.Counter("esh_writes_applied_total", "Live corpus writes applied in memory.", "op", "delete")
	db.mCompactions = reg.Counter("esh_compactions_total", "Compactions folding live writes and tombstones into a new snapshot generation.")
	db.hCompact = reg.Histogram("esh_compaction_seconds",
		"Wall time per compaction (remap + snapshot persistence + swap).", nil)
	reg.GaugeFunc("esh_index_generation", "Data generation: bumped by every compaction.", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(db.generation)
	})
	reg.GaugeFunc("esh_index_pending_writes", "Live writes applied since the last compaction (or load).", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(db.pendingWrites)
	})
	reg.GaugeFunc("esh_index_tombstones", "Tombstoned (dead but uncompacted) targets.", func() float64 {
		db.cfgMu.RLock()
		defer db.cfgMu.RUnlock()
		return float64(db.tombstones)
	})
}

// Metrics returns the DB's metrics registry, for exposition alongside
// server-level metrics.
func (db *DB) Metrics() *telemetry.Registry { return db.reg }

// observeStage records one stage duration into the per-stage histogram.
func (db *DB) observeStage(stage string, d time.Duration) {
	if h := db.stageHist[stage]; h != nil {
		h.Observe(d.Seconds())
	}
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
	generation uint64
	pending    int
}

func (db *DB) prefilterOn() bool { return db.opts.Prefilter == PrefilterLSH }
func (db *DB) probeOn() bool     { return db.opts.Retrieval == RetrievalProbe }

func (db *DB) snapshotConfig() queryConfig {
	db.cfgMu.RLock()
	qc := queryConfig{
		sums:      db.sums,
		sketchIdx: db.sketchIdx, retr: db.retr, sketchGen: db.sketchGen,
		uniq: db.uniq, counts: db.counts, targets: db.targets,
		live: db.live, h0Order: db.h0Order,
		generation: db.generation, pending: db.pendingWrites,
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
			start := time.Now()
			db.retr = sketch.BuildRetrieval(db.sums, db.sketchCfg)
			db.hRetrBuild.Observe(time.Since(start).Seconds())
		}
		r := db.retr
		db.cfgMu.Unlock()
		return r
	}
	db.cfgMu.Unlock()
	start := time.Now()
	r := sketch.BuildRetrieval(qc.sums, db.sketchCfg)
	db.hRetrBuild.Observe(time.Since(start).Seconds())
	return r
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

// Signatures returns the per-unique-strand MinHash signatures in index
// order (do not modify). Used by the snapshot writer.
func (db *DB) Signatures() []sketch.Signature {
	db.cfgMu.RLock()
	defer db.cfgMu.RUnlock()
	sigs := make([]sketch.Signature, len(db.sums))
	for i := range db.sums {
		sigs[i] = db.sums[i].Sig
	}
	return sigs
}

// RetrievalIndex returns the probe table over the current corpus,
// building it if necessary. The returned index is immutable; it is what
// the snapshot writer persists and eshcorpus prints build stats from.
func (db *DB) RetrievalIndex() *sketch.RetrievalIndex {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	db.cfgMu.Lock()
	defer db.cfgMu.Unlock()
	if db.retr == nil {
		start := time.Now()
		db.retr = sketch.BuildRetrieval(db.sums, db.sketchCfg)
		db.hRetrBuild.Observe(time.Since(start).Seconds())
	}
	return db.retr
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
// change; the next probe-mode query (or RetrievalIndex) rebuilds it.
// Callers are AddTarget and FromExport (neither concurrency-safe).
func (db *DB) invalidateRetrieval() {
	db.retr = nil
	db.sketchGen++
}

// DBStats is a point-in-time snapshot of database and cache occupancy,
// safe to collect concurrently with Query.
type DBStats struct {
	Targets       int
	UniqueStrands int
	TotalStrands  int
	// Live write-path state: LiveTargets excludes tombstoned targets;
	// Generation is the compaction generation; WALSeq the sequence of
	// the last applied journal record; PendingWrites/Tombstones the
	// uncompacted write and tombstone counts.
	LiveTargets   int
	Generation    uint64
	WALSeq        uint64
	PendingWrites int
	Tombstones    int
	// VCPCachePairs is the number of cached strand-pair results;
	// VCPCacheQueries the number of distinct query strands they span.
	VCPCachePairs   int
	VCPCacheQueries int
	VCPCacheCap     int
	VCPCacheEvicted uint64
	// Lifetime cache traffic: hits reused a cached pair result, misses
	// computed one (two verifier calls each).
	VCPCacheHits   uint64
	VCPCacheMisses uint64
	// VCPPairsPruned counts pairs rejected by the size-ratio window;
	// VerifierCalls counts vcp.Compute invocations;
	// VerifierCorrespondences counts γ evaluations inside them.
	VCPPairsPruned          uint64
	VerifierCalls           uint64
	VerifierCorrespondences uint64
	// Prefilter is the active mode (PrefilterOff or PrefilterLSH);
	// LSHBands/LSHRows the sketch geometry; LSHMinContainment the
	// heuristic-tier threshold (0 = sound tier only); LSHPairsSkipped
	// the pairs the prefilter removed before any verifier work;
	// LSHDeadDirections the single verifier directions skipped on
	// surviving pairs because the typed inputs cannot inject.
	Prefilter         string
	LSHBands          int
	LSHRows           int
	LSHMinContainment float64
	LSHPairsSkipped   uint64
	LSHDeadDirections uint64
	// Retrieval is the active stage-3 candidate source (RetrievalScan
	// or RetrievalProbe). RetrievalProbes counts probe-mode query
	// strands; RetrievalCandidates their cumulative retrieved
	// candidates; RetrievalSoundCandidates the cumulative
	// injectability-live set sizes (candidates/sound is the recall
	// proxy at heuristic settings — at sound settings the two are
	// equal). The table-shape fields are zero until the probe table has
	// been built (lazily, on first probe use).
	Retrieval                string
	RetrievalProbes          uint64
	RetrievalCandidates      uint64
	RetrievalSoundCandidates uint64
	RetrievalTableBuckets    int
	RetrievalTableMaxPost    int
	RetrievalTableMeanPost   float64
	RetrievalTableSkew       float64
	// KernelNanos is the cumulative wall time γ loops spent inside the
	// evaluation kernel; KernelPrefixInstrs / KernelInstrs the
	// γ-invariant and total compiled instruction counts across prepared
	// strands (their ratio is the fraction of evaluation work hoisted
	// out of the γ loop).
	KernelNanos        uint64
	KernelPrefixInstrs uint64
	KernelInstrs       uint64
	// GammaBatches is the cumulative kernel flushes and GammaBatchRows
	// the correspondences those flushes carried.
	GammaBatches   uint64
	GammaBatchRows uint64
	// MemoHits / MemoMisses split the enumerated correspondences by
	// whether a strand's γ-fingerprint memo already held their
	// fingerprints (only misses reach the kernel); MemoBytes is what the
	// memos hold now, never above the fixed MemoBudget; MemoEvictions
	// counts strands whose memo was dropped to stay within it.
	MemoHits      uint64
	MemoMisses    uint64
	MemoEvictions uint64
	MemoBytes     int64
	MemoBudget    int64
	// Queries is the number of Query calls answered; StageSeconds holds
	// the cumulative wall-clock seconds each pipeline stage has consumed
	// across them.
	Queries      uint64
	StageSeconds map[string]float64
}

// VCPCacheHitRate returns hits/(hits+misses), or 0 before any traffic.
func (s DBStats) VCPCacheHitRate() float64 {
	if s.VCPCacheHits+s.VCPCacheMisses == 0 {
		return 0
	}
	return float64(s.VCPCacheHits) / float64(s.VCPCacheHits+s.VCPCacheMisses)
}

// Stats returns current occupancy counters. Index sizes and write-path
// state are read under cfgMu (the live write path mutates them at serve
// time); the cache counters are read under the cache lock.
func (db *DB) Stats() DBStats {
	memo := db.memo.Stats()
	db.cfgMu.RLock()
	retr := db.retr
	nTargets := len(db.targets)
	nUniq := len(db.uniq)
	total := db.total
	tombstones := db.tombstones
	generation := db.generation
	walSeq := db.walSeq
	pending := db.pendingWrites
	db.cfgMu.RUnlock()
	s := DBStats{
		Targets:                  nTargets,
		UniqueStrands:            nUniq,
		TotalStrands:             total,
		LiveTargets:              nTargets - tombstones,
		Generation:               generation,
		WALSeq:                   walSeq,
		PendingWrites:            pending,
		Tombstones:               tombstones,
		VCPCacheCap:              db.cacheCap(),
		VCPCacheEvicted:          db.mCacheEvict.Value(),
		VCPCacheHits:             db.mCacheHits.Value(),
		VCPCacheMisses:           db.mCacheMisses.Value(),
		VCPPairsPruned:           db.mPairsPruned.Value(),
		VerifierCalls:            db.mVerifierCalls.Value(),
		VerifierCorrespondences:  db.mGamma.Value(),
		Prefilter:                db.opts.Prefilter,
		LSHBands:                 db.sketchCfg.Bands,
		LSHRows:                  db.sketchCfg.Rows,
		LSHMinContainment:        db.sketchCfg.MinContainment,
		LSHPairsSkipped:          db.mLSHSkipped.Value(),
		LSHDeadDirections:        db.mDeadDirs.Value(),
		Retrieval:                db.opts.Retrieval,
		RetrievalProbes:          db.mProbes.Value(),
		RetrievalCandidates:      db.mProbeCands.Value(),
		RetrievalSoundCandidates: db.mProbeSound.Value(),
		KernelNanos:              db.mKernelNanos.Value(),
		KernelPrefixInstrs:       db.mPrefixInstrs.Value(),
		KernelInstrs:             db.mKernelInstrs.Value(),
		GammaBatches:             db.mGammaBatches.Value(),
		GammaBatchRows:           db.mGammaRows.Value(),
		MemoHits:                 db.mMemoHits.Value(),
		MemoMisses:               db.mMemoMisses.Value(),
		MemoEvictions:            memo.Evictions,
		MemoBytes:                memo.Bytes,
		MemoBudget:               memo.Budget,
		Queries:                  db.mQueries.Value(),
		StageSeconds:             make(map[string]float64, len(queryStages)),
	}
	if retr != nil {
		rst := retr.Stats()
		s.RetrievalTableBuckets = rst.Buckets
		s.RetrievalTableMaxPost = rst.MaxPosting
		s.RetrievalTableMeanPost = rst.MeanPosting
		s.RetrievalTableSkew = rst.Skew
	}
	for _, st := range queryStages {
		s.StageSeconds[st] = db.stageHist[st].Sum()
	}
	db.mu.Lock()
	s.VCPCachePairs = db.cachePairs
	s.VCPCacheQueries = len(db.vcpCache)
	db.mu.Unlock()
	return s
}

// cacheCap resolves the configured vcpCache bound (< 0: unbounded).
func (db *DB) cacheCap() int {
	if db.opts.VCPCachePairs == 0 {
		return DefaultVCPCachePairs
	}
	return db.opts.VCPCachePairs
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
// whether ctx carries a span.
//
// QueryCtx is PartialQueryCtx finalized against the database's own
// corpus counts; running the identical code path for the sharded and
// unsharded cases is what makes a gateway merge provably score-identical
// to a single node.
func (db *DB) QueryCtx(ctx context.Context, p *asm.Proc) (*Report, error) {
	qc := db.snapshotConfig()
	qp, err := db.partialQuery(ctx, p, &qc)
	if err != nil {
		return nil, err
	}
	// Finalize against the same snapshot the pair loop ran under: a live
	// write between the two would otherwise hand Finalize counts that
	// are longer (or, post-tombstone, differently weighted) than the
	// rows. With tombstones present, h0Order replays the H0 sums in the
	// first-seen order a from-scratch rebuild of the live targets would
	// use, keeping scores bit-identical to that rebuild.
	return qp.FinalizeOrder(qc.counts, qc.h0Order), nil
}

// PartialQueryCtx runs the query pipeline up to (but excluding) the
// corpus-wide H0 estimate: decompose, prepare, the VCP pair loop, and
// the order-insensitive per-target reductions (best forward VCP per
// query strand, S-VCP). The returned QueryPartial carries everything a
// coordinator needs to merge this shard's view with others' and produce
// scores bit-identical to a single node holding the union corpus — see
// QueryPartial.Finalize for the exactness argument.
func (db *DB) PartialQueryCtx(ctx context.Context, p *asm.Proc) (*QueryPartial, error) {
	qc := db.snapshotConfig()
	return db.partialQuery(ctx, p, &qc)
}

// partialQuery is the shared pipeline body behind QueryCtx and
// PartialQueryCtx: both snapshot the configuration exactly once and run
// every stage — and, for QueryCtx, finalization — against that view, so
// a live write landing mid-query can never mix two corpus states.
func (db *DB) partialQuery(ctx context.Context, p *asm.Proc, qc *queryConfig) (*QueryPartial, error) {
	db.mQueries.Inc()

	// Stage 1: decompose — disassembly → CFG → lift → strands.
	_, spDec := telemetry.StartSpan(ctx, "decompose")
	kept, nBlocks, err := decompose(p, db.opts)
	db.observeStage("decompose", spDec.End())
	if err != nil {
		return nil, fmt.Errorf("core: query %s: %w", p.Name, err)
	}
	spDec.SetAttr("blocks", float64(nBlocks))
	spDec.SetAttr("strands", float64(len(kept)))
	qp := &QueryPartial{
		QueryName:  p.Name,
		Source:     p.Source,
		NumBlocks:  nBlocks,
		NumStrands: len(kept),
		SigmoidK:   db.opts.SigmoidK,
	}

	// Stage 2: prepare — deduplicate query strands (multiplicity becomes
	// LES weight) and build their verifier preparations. The dedup order
	// is first-seen, which is deterministic in the query text — every
	// shard handed the same query builds the same row order, so a
	// coordinator can merge rows by index.
	_, spPrep := telemetry.StartSpan(ctx, "prepare")
	type qstrand struct {
		prep   *vcp.Prepared
		weight float64
	}
	var qs []*qstrand
	qIdx := map[string]int{}
	for _, s := range kept {
		key := s.CanonicalKey()
		if i, ok := qIdx[key]; ok {
			qs[i].weight++
			continue
		}
		prep := db.prepare(s)
		if prep.Err() != nil {
			spPrep.End()
			return nil, fmt.Errorf("core: prepare query strand: %w", prep.Err())
		}
		pre, tot := prep.InstrCounts()
		db.mPrefixInstrs.Add(uint64(pre))
		db.mKernelInstrs.Add(uint64(tot))
		qIdx[key] = len(qs)
		qs = append(qs, &qstrand{prep: prep, weight: 1})
	}
	spPrep.SetAttr("unique_strands", float64(len(qs)))
	db.observeStage("prepare", spPrep.End())

	// Stage 3: vcp — for each unique query strand, compute the VCP row
	// against every unique target strand, in both directions. The
	// forward direction VCP(sq, st) drives S-LOG and Esh; the reverse
	// direction VCP(st, sq) drives the paper's S-VCP definition (§6.2),
	// which sums over target strands. The rows are cut into pair-level
	// chunks and drained by a bounded worker pool (see vcpRows), so a
	// query of few large strands still saturates every worker and the
	// goroutine count is bounded by Workers rather than the strand count.
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
	preps := make([]*vcp.Prepared, len(qs))
	for i, q := range qs {
		preps[i] = q.prep
	}
	rows, revRows := db.vcpRows(preps, spVCP, qc)
	// The query strands' memos die with the query; the target strands'
	// stay warm for the next one.
	db.memo.Release(preps...)
	db.observeStage("vcp", spVCP.End())

	qp.Weights = make([]float64, len(qs))
	for i, q := range qs {
		qp.Weights[i] = q.weight
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
	for ti, t := range qc.targets {
		if qc.live != nil && !qc.live[ti] {
			continue
		}
		maxVCPs := make([]float64, len(qs))
		for i := range qs {
			best := 0.0
			row := rows[i]
			for _, j := range t.strandIdx {
				if row[j] > best {
					best = row[j]
				}
			}
			maxVCPs[i] = best
		}
		svcp := 0.0
		for _, j := range t.strandIdx {
			svcp += maxRev[j]
		}
		qp.Targets = append(qp.Targets, PartialScore{Target: t, SVCP: svcp, MaxVCP: maxVCPs})
	}
	qp.DataGeneration = qc.generation
	qp.PendingWrites = qc.pending
	spScore.SetAttr("targets", float64(len(qp.Targets)))
	db.observeStage("score", spScore.End())
	return qp, nil
}

// rowStats is the per-row telemetry accumulator: each chunk counts its
// work locally and merges under the row lock; the completed row flushes
// once, so the pair loop never touches an atomic or a span lock.
type rowStats struct {
	pairs       int   // unique target strands examined
	lshSkipped  int   // skipped by the LSH prefilter
	lshCands    int   // LSH candidate-set size (valid when lshOn)
	lshOn       bool  // prefilter consulted for this row
	probeOn     bool  // candidates came from a retrieval-table probe
	probeCands  int   // retrieved candidate-set size (valid when probeOn)
	soundCands  int   // injectability-live set size (valid when probeOn)
	probeNanos  int64 // wall time inside the probe (valid when probeOn)
	pruned      int   // rejected by the size-ratio window
	identical   int   // short-circuited as structurally identical
	hits        int   // cache hits (pair results reused)
	misses      int   // cache misses (pair results computed)
	calls       int   // vcp.Compute invocations (up to two per miss)
	deadDirs    int   // per-direction calls avoided as provably zero
	gamma       int   // input correspondences evaluated inside them
	kernelNanos int64 // wall time inside the evaluation kernel
	gammaB      int64 // γ-batch kernel flushes
	gammaRows   int64 // correspondences those flushes carried
	gammaSlots  int64 // rows those flushes had room for (for occupancy)
	memoHits    int64 // enumeration leaves answered by a γ-fingerprint memo
	memoMisses  int64 // enumeration leaves evaluated by the kernel
}

// merge folds a chunk's local counts into the row accumulator. The
// row-wide fields (pairs, lshOn, lshCands) are set at init time and left
// alone here.
func (rs *rowStats) merge(d rowStats) {
	rs.lshSkipped += d.lshSkipped
	rs.pruned += d.pruned
	rs.identical += d.identical
	rs.hits += d.hits
	rs.misses += d.misses
	rs.calls += d.calls
	rs.deadDirs += d.deadDirs
	rs.gamma += d.gamma
	rs.kernelNanos += d.kernelNanos
	rs.gammaB += d.gammaB
	rs.gammaRows += d.gammaRows
	rs.gammaSlots += d.gammaSlots
	rs.memoHits += d.memoHits
	rs.memoMisses += d.memoMisses
}

// flush adds the row's counts to the DB counters and, when sp is part of
// a live trace, to the shared vcp stage span.
func (db *DB) flushRowStats(rs rowStats, sp *telemetry.Span) {
	db.mPairsPruned.Add(uint64(rs.pruned))
	db.mPairsIdent.Add(uint64(rs.identical))
	db.mCacheHits.Add(uint64(rs.hits))
	db.mCacheMisses.Add(uint64(rs.misses))
	db.mVerifierCalls.Add(uint64(rs.calls))
	db.mGamma.Add(uint64(rs.gamma))
	db.mKernelNanos.Add(uint64(rs.kernelNanos))
	db.mMemoHits.Add(uint64(rs.memoHits))
	db.mMemoMisses.Add(uint64(rs.memoMisses))
	if rs.gammaB > 0 {
		db.mGammaBatches.Add(uint64(rs.gammaB))
		db.mGammaRows.Add(uint64(rs.gammaRows))
		db.hGammaOccup.Observe(float64(rs.gammaRows) / float64(rs.gammaSlots))
	}
	if rs.lshOn {
		db.mLSHSkipped.Add(uint64(rs.lshSkipped))
		db.hLSHCands.Observe(float64(rs.lshCands))
	}
	if rs.probeOn {
		db.mProbes.Inc()
		db.mProbeCands.Add(uint64(rs.probeCands))
		db.mProbeSound.Add(uint64(rs.soundCands))
		db.hProbeCands.Observe(float64(rs.probeCands))
		db.hProbeLatency.Observe(float64(rs.probeNanos) / 1e9)
	}
	if rs.lshOn || rs.probeOn {
		db.mDeadDirs.Add(uint64(rs.deadDirs))
	}
	if sp == nil {
		return
	}
	sp.AddAttr("pairs", float64(rs.pairs))
	if rs.lshOn {
		sp.AddAttr("lsh_skipped", float64(rs.lshSkipped))
		sp.AddAttr("lsh_candidates", float64(rs.lshCands))
	}
	if rs.probeOn {
		sp.AddAttr("retrieval_candidates", float64(rs.probeCands))
		sp.AddAttr("retrieval_sound_candidates", float64(rs.soundCands))
		sp.AddAttr("probe_nanos", float64(rs.probeNanos))
	}
	if rs.lshOn || rs.probeOn {
		sp.AddAttr("dead_directions", float64(rs.deadDirs))
	}
	sp.AddAttr("pairs_pruned", float64(rs.pruned))
	sp.AddAttr("pairs_identical", float64(rs.identical))
	sp.AddAttr("cache_hits", float64(rs.hits))
	sp.AddAttr("cache_misses", float64(rs.misses))
	sp.AddAttr("verifier_calls", float64(rs.calls))
	sp.AddAttr("correspondences", float64(rs.gamma))
	sp.AddAttr("kernel_nanos", float64(rs.kernelNanos))
	sp.AddAttr("gamma_batches", float64(rs.gammaB))
	sp.AddAttr("gamma_batch_rows", float64(rs.gammaRows))
	sp.AddAttr("memo_hits", float64(rs.memoHits))
}

// maxPairChunk caps the number of target strands one work-queue item
// covers, so the per-chunk bookkeeping (row lock, once-init check)
// stays noise next to the verifier calls inside. Below the cap the
// chunk size adapts to the workload — see pairChunk.
const maxPairChunk = 64

// pairChunk picks the work-queue chunk size for a query of nq strands
// against n targets: small enough that even a single-strand query
// against a small index cuts into several chunks per worker (so the
// machine saturates on the pair population, not the strand count),
// capped at maxPairChunk for large corpora.
func pairChunk(nq, n, workers int) int {
	chunk := (nq*n + 4*workers - 1) / (4 * workers)
	if chunk < 1 {
		chunk = 1
	}
	return min(chunk, maxPairChunk)
}

// vcpRowState carries one query strand's row through the pair-level
// work queue. The once-init populates the row-wide inputs (cache
// snapshot, prefilter candidate set, size ratio) on whichever worker
// touches the row first; chunks then run lock-free over disjoint target
// ranges, merging their telemetry and fresh cache entries under the row
// lock; the worker that finishes the last chunk flushes the stats and
// writes the fresh entries back to the shared cache.
type vcpRowState struct {
	q        *vcp.Prepared
	qc       *queryConfig // the query's entry-time corpus snapshot
	fwd, rev []float64

	// Probe mode: the retrieved candidate ids, filled at row setup
	// (before chunking — the chunk cuts cover this list, not [0, n)).
	// nil in scan mode. probed distinguishes "probe mode, no
	// candidates" from "scan mode".
	candIDs []int32
	probed  bool

	init   sync.Once
	cached map[string][2]float64 // shared-cache snapshot, read-only after init
	cand   []bool                // prefilter candidates (nil when off or probing)
	qSum   sketch.Summary
	ratio  float64

	mu      sync.Mutex
	fresh   map[string][2]float64 // pairs computed by this row's chunks
	rs      rowStats
	pending atomic.Int32 // chunks not yet finished
}

// vcpRows computes VCP(q, u) and VCP(u, q) for every (query strand q,
// unique target strand u) pair, applying the §5.5 size window and the
// cross-query memo cache. All rows are cut into pairChunkSize chunks up
// front and drained through one shared queue by min(Workers, chunks)
// goroutines, so parallelism comes from the pair population rather than
// the strand count: a query with fewer strands than workers no longer
// leaves cores idle, and a query with thousands of strands no longer
// spawns a goroutine per strand. Work counts flow into sp (the shared
// vcp stage span) and the DB counters once per row.
func (db *DB) vcpRows(qs []*vcp.Prepared, sp *telemetry.Span, qc *queryConfig) (rows, revRows [][]float64) {
	n := len(qc.uniq)
	rows = make([][]float64, len(qs))
	revRows = make([][]float64, len(qs))
	states := make([]*vcpRowState, len(qs))
	probe := db.probeOn() && qc.retr != nil
	totalPairs := 0
	var scratch []bool
	if probe {
		scratch = db.getMark(n)
	}
	for i, q := range qs {
		st := &vcpRowState{
			q:     q,
			qc:    qc,
			fwd:   make([]float64, n),
			rev:   make([]float64, n),
			fresh: map[string][2]float64{},
		}
		if probe {
			// Probe the retrieval table up front: the chunk cuts below
			// cover the retrieved candidate list, so everything outside
			// it is never touched (its row entries stay zero, exactly
			// like a scan-mode prefilter skip).
			st.probed = true
			st.qSum = sketch.Summarize(q.S, db.sketchCfg)
			start := time.Now()
			st.candIDs, st.rs.soundCands = qc.retr.Probe(st.qSum, scratch, nil)
			// Delta overlay: strands written live since the table was
			// built (sketch.RetrievalIndex.ProbeDelta has the contract).
			var deltaSound int
			st.candIDs, deltaSound = qc.retr.ProbeDelta(st.qSum, qc.sums[:n], qc.counts, st.candIDs)
			st.rs.soundCands += deltaSound
			st.rs.probeNanos = time.Since(start).Nanoseconds()
			st.rs.probeOn = true
			st.rs.probeCands = len(st.candIDs)
			st.rs.pairs = len(st.candIDs)
			totalPairs += len(st.candIDs)
		} else {
			st.rs.pairs = n
			totalPairs += n
		}
		states[i] = st
		rows[i], revRows[i] = st.fwd, st.rev
	}
	if probe {
		db.putMark(scratch)
	}
	size := pairChunk(1, totalPairs, db.opts.Workers)
	type chunk struct{ row, lo, hi int }
	var chunks []chunk
	for i, st := range states {
		rowLen := n
		if st.probed {
			rowLen = len(st.candIDs)
		}
		if rowLen == 0 {
			// No chunk will ever touch this row: flush its telemetry
			// (probe latency, empty candidate set) here.
			db.flushRowStats(st.rs, sp)
			continue
		}
		st.pending.Store(int32((rowLen + size - 1) / size))
		for lo := 0; lo < rowLen; lo += size {
			chunks = append(chunks, chunk{row: i, lo: lo, hi: min(lo+size, rowLen)})
		}
	}
	if len(chunks) == 0 {
		return rows, revRows
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < min(db.opts.Workers, len(chunks)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				c := int(next.Add(1)) - 1
				if c >= len(chunks) {
					return
				}
				db.vcpChunk(states[chunks[c].row], chunks[c].lo, chunks[c].hi, sp)
			}
		}()
	}
	wg.Wait()
	return rows, revRows
}

// initRow populates a row's shared inputs: the memo-cache snapshot and
// — with the prefilter on — the candidate target set (everything
// unmarked is skipped in vcpChunk before the size window runs: pairs
// that are injectability-dead in both directions, plus — with the
// heuristic tier enabled — pairs the LSH/containment tests consider
// dissimilar).
func (db *DB) initRow(st *vcpRowState) {
	qKey := st.q.Key()
	db.mu.Lock()
	st.cached = make(map[string][2]float64, len(db.vcpCache[qKey]))
	for k, v := range db.vcpCache[qKey] {
		st.cached[k] = v
	}
	db.mu.Unlock()

	st.ratio = db.opts.VCP.SizeRatio
	if st.ratio <= 0 {
		st.ratio = vcp.Default().SizeRatio
	}
	// In probe mode the candidate set was retrieved at row setup (it
	// determined the chunk cuts); the scan-mode prefilter has nothing
	// left to mark.
	if !st.probed && db.prefilterOn() {
		st.rs.lshOn = true
		st.cand = db.getMark(len(st.qc.uniq))
		st.qSum = sketch.Summarize(st.q.S, db.sketchCfg)
		st.rs.lshCands = st.qc.sketchIdx.Candidates(st.qSum, st.cand)
	}
}

// vcpChunk processes the target strands [lo, hi) of one row: the pair
// loop body (identical-key short circuit, prefilter, size window, memo
// cache, verifier calls in both live directions) over a local stats
// accumulator and fresh-entry map, merged into the row under its lock.
// The identical-key short circuit stays ahead of the prefilter so an
// exact structural match can never be lost to sketch noise. The chunk
// that completes the row triggers finishRow.
func (db *DB) vcpChunk(st *vcpRowState, lo, hi int, sp *telemetry.Span) {
	st.init.Do(func() { db.initRow(st) })

	q := st.q
	qKey := q.Key()
	var rs rowStats
	var fresh map[string][2]float64
	// Two evaluators for the whole chunk, so the γ search's scratch is
	// allocated once per chunk, not per pair. The forward one stays on
	// the query strand: once a memo miss makes it acquire q's kernel, the
	// kernel — and its evaluated γ-invariant prefix — persists across
	// every pair here. (Chunks of one row run on concurrent workers and
	// evaluators are not concurrency-safe, so the unit of reuse is the
	// chunk, not the row.) The reverse one is rebound to each target
	// strand in turn; it acquires that strand's kernel only if the
	// strand's memo misses, which on a warm corpus it rarely does.
	fwdEval := db.newEval(q, db.opts.VCP)
	defer fwdEval.Close()
	revEval := db.newEval(q, db.opts.VCP)
	defer revEval.Close()
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
	for k := lo; k < hi; k++ {
		j := k
		if st.candIDs != nil {
			j = int(st.candIDs[k]) // probe mode: [lo,hi) indexes the candidate list
		}
		// Dead strands (every owning target tombstoned) are skipped
		// before any work — including the identical short circuit — so
		// their row entries stay zero and scan and probe hand the
		// verifier the same live pair set. Nothing downstream reads
		// them: h0Order excludes dead strands and stage 4 only walks
		// live targets' strand lists.
		if st.qc.counts[j] == 0 {
			continue
		}
		u := st.qc.uniq[j]
		uKey := u.Key()
		if qKey == uKey {
			st.fwd[j], st.rev[j] = 1.0, 1.0 // identical strands match exactly
			rs.identical++
			continue
		}
		if st.cand != nil && !st.cand[j] {
			rs.lshSkipped++
			continue
		}
		// The size window is symmetric, so it gates both directions.
		if !vcp.SizeCompatible(q.S, u.S, st.ratio) {
			rs.pruned++
			continue
		}
		v, hit := st.cached[uKey]
		if !hit {
			// With the prefilter on (or a probed candidate set), a
			// candidate pair can still be injectability-dead in ONE
			// direction: that direction's VCP is exactly 0 and its
			// verifier call is skipped.
			fwdLive, revLive := true, true
			if st.cand != nil || st.probed {
				uSum := st.qc.sums[j]
				fwdLive, revLive = st.qSum.Injects(uSum), uSum.Injects(st.qSum)
			}
			if fwdLive {
				fv, fst := fwdEval.Compute(u)
				v[0] = fv
				count(fst)
			} else {
				rs.deadDirs++
			}
			if revLive {
				revEval.Reset(u)
				rv, rst := revEval.Compute(q)
				v[1] = rv
				count(rst)
			} else {
				rs.deadDirs++
			}
			rs.misses++
			if fresh == nil {
				fresh = map[string][2]float64{}
			}
			fresh[uKey] = v
		} else {
			rs.hits++
		}
		st.fwd[j], st.rev[j] = v[0], v[1]
	}

	st.mu.Lock()
	st.rs.merge(rs)
	for k, v := range fresh {
		st.fresh[k] = v
	}
	st.mu.Unlock()

	if st.pending.Add(-1) == 0 {
		db.finishRow(st, sp)
	}
}

// finishRow runs once per row, after its last chunk: flush the merged
// telemetry and write the freshly computed pairs back to the shared
// memo cache. The cache is read once at init and written back once
// here, so concurrent chunks never fight over the cache lock inside
// the pair loop.
func (db *DB) finishRow(st *vcpRowState, sp *telemetry.Span) {
	db.flushRowStats(st.rs, sp)
	if st.cand != nil {
		db.putMark(st.cand)
		st.cand = nil
	}
	if len(st.fresh) == 0 {
		return
	}
	qKey := st.q.Key()
	db.mu.Lock()
	shared := db.vcpCache[qKey]
	if shared == nil {
		shared = map[string][2]float64{}
		db.vcpCache[qKey] = shared
		db.cacheOrder = append(db.cacheOrder, qKey)
	}
	for k, v := range st.fresh {
		if _, dup := shared[k]; !dup {
			db.cachePairs++
		}
		shared[k] = v
	}
	db.evictLocked(qKey)
	db.mu.Unlock()
}

// evictLocked drops whole query-strand rows, oldest first, until the
// cache is back under its pair bound. The row just written (keep) is
// spared unless it is the only one left, so a single huge query cannot
// evict itself into a cold cache on every call. Callers hold db.mu.
func (db *DB) evictLocked(keep string) {
	bound := db.cacheCap()
	if bound < 0 {
		return
	}
	for db.cachePairs > bound && len(db.cacheOrder) > 0 {
		oldest := db.cacheOrder[0]
		if oldest == keep && len(db.cacheOrder) == 1 {
			return
		}
		db.cacheOrder = db.cacheOrder[1:]
		if oldest == keep {
			db.cacheOrder = append(db.cacheOrder, oldest)
			continue
		}
		db.cachePairs -= len(db.vcpCache[oldest])
		delete(db.vcpCache, oldest)
		db.mCacheEvict.Inc()
	}
	// Re-base the order slice occasionally so the sliced-off prefix of
	// the backing array can be collected.
	if cap(db.cacheOrder) > 2*len(db.cacheOrder)+64 {
		db.cacheOrder = append([]string(nil), db.cacheOrder...)
	}
}
