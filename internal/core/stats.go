package core

import (
	"time"

	"repro/internal/fifo"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// initMetrics builds the DB's metrics registry. The index-size and
// write-state gauges each read the corpus version current at the scrape.
func (db *DB) initMetrics() {
	reg := telemetry.NewRegistry()
	db.reg = reg
	db.stageHist = make(map[string]*telemetry.Histogram, len(queryStages))
	for _, st := range queryStages {
		db.stageHist[st] = reg.Histogram("esh_query_stage_seconds",
			"Wall time per query pipeline stage.", nil, "stage", st)
	}
	db.mQueries = reg.Counter("esh_engine_queries_total", "Queries answered by the engine.")
	db.mCacheHits = reg.Counter("esh_vcp_cache_hits_total", "Verified strand pairs whose result came from a cached VCP row.")
	db.mCacheMisses = reg.Counter("esh_vcp_cache_misses_total", "Strand pairs no cached VCP row knew: verified, then published in the row.")
	reg.CounterFunc("esh_vcp_cache_evictions_total", "Query-strand rows evicted from the VCP cache.", func() float64 {
		return float64(db.rowCacheStats().Evictions)
	})
	for st, name := range rowStateNames {
		db.mRows[st] = reg.Counter("esh_vcp_cache_rows_total",
			"Query strands by the state of their cached VCP row at lookup: complete (handed out as is), partial (some columns still owed) or absent.",
			"state", name)
	}
	db.mPrepares = reg.Counter("esh_query_strands_prepared_total", "Query strands that reached vcp.Prepare (only those with at least one pair left to verify).")
	db.mPairsPruned = reg.Counter("esh_vcp_pairs_pruned_total", "Strand pairs rejected by the size-ratio window before any verifier work.")
	db.mPairsIdent = reg.Counter("esh_vcp_pairs_identical_total", "Strand pairs short-circuited as structurally identical.")
	db.mVerifierCalls = reg.Counter("esh_verifier_calls_total", "vcp.Compute invocations: one per verified strand pair, in the forward direction (none for a pair whose forward direction cannot inject).")
	db.mGamma = reg.Counter("esh_verifier_correspondences_total", "Input correspondences evaluated by the probabilistic verifier.")
	db.mLSHSkipped = reg.Counter("esh_lsh_pairs_skipped_total", "Strand pairs skipped before any verifier work: the query strand's typed inputs cannot inject into the target strand's.")
	db.mKernelNanos = reg.Counter("esh_vcp_kernel_nanos_total", "Wall nanoseconds the γ loops spent inside the evaluation kernel (γ-fingerprint memo misses only; hits never reach it).")
	db.mMemoHits = reg.Counter("esh_vcp_memo_hits_total", "Enumerated correspondences whose fingerprints came from a strand's γ-fingerprint memo.")
	db.mMemoMisses = reg.Counter("esh_vcp_memo_misses_total", "Enumerated correspondences the memo did not hold: evaluated by the kernel, then stored unless the memo ceiling refuses them.")
	reg.GaugeFunc("esh_vcp_memo_bytes", "Bytes held by the γ-fingerprint memos of in-flight queries' strands; never above esh_vcp_memo_budget_bytes.", func() float64 {
		return float64(db.memo.Stats().Held)
	})
	reg.GaugeFunc("esh_engine_memo_entries", "Slot assignments the γ-fingerprint memos remember; esh_vcp_memo_bytes over this is the cost of one.", func() float64 {
		return float64(db.memo.Stats().Entries)
	})
	reg.GaugeFunc("esh_vcp_memo_budget_bytes", "The fixed byte ceiling of the γ-fingerprint memos: past it a memo stops remembering new assignments.", func() float64 {
		return float64(db.memo.Stats().Budget)
	})
	db.mPrefixInstrs = reg.Counter("esh_kernel_prefix_instrs_total", "γ-invariant prefix instructions across prepared query strands (hoisted out of the γ loop by the batched kernel).")
	db.mKernelInstrs = reg.Counter("esh_kernel_instrs_total", "Total compiled instructions across prepared query strands (indexed strands keep no program and are not counted).")
	db.mGammaBatches = reg.Counter("esh_kernel_gamma_batches_total", "γ-batch kernel flushes (one suffix execution each; correspondences/batches is the mean rows per flush).")
	db.mGammaRows = reg.Counter("esh_kernel_gamma_batch_rows_total", "Correspondence rows carried by γ-batch kernel flushes: γ-fingerprint memo misses only (includes rows discarded uncounted after a perfect match or the cap).")
	db.hGammaOccup = reg.Histogram("esh_kernel_gamma_batch_occupancy",
		"Mean γ-batch fill fraction at flush, observed once per query strand row (memo-miss rows carried / (width × flushes)).",
		[]float64{0.0625, 0.125, 0.25, 0.375, 0.5, 0.625, 0.75, 0.875, 1.0})
	db.hLSHCands = reg.Histogram("esh_lsh_candidate_set_size",
		"Candidate-set size per scanned query strand: the pairs not skipped.",
		[]float64{0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000, 25000, 50000})
	db.hSketchBuild = reg.Histogram("esh_sketch_build_seconds",
		"Wall time spent computing MinHash sketches and LSH buckets (per target at index time, per rebuild at load time).", nil)
	reg.GaugeFunc("esh_vcp_cache_pairs", "Row entries held by the VCP cache (the sum of its rows' widths).", func() float64 {
		return float64(db.rowCacheStats().Held)
	})
	reg.GaugeFunc("esh_vcp_cache_query_strands", "Distinct query strands with cached rows.", func() float64 {
		return float64(db.rowCacheStats().Entries)
	})
	reg.GaugeFunc("esh_vcp_cache_hit_ratio", "Lifetime VCP cache hit ratio.", func() float64 {
		h, m := db.mCacheHits.Value(), db.mCacheMisses.Value()
		if h+m == 0 {
			return 0
		}
		return float64(h) / float64(h+m)
	})
	reg.GaugeFunc("esh_index_targets", "Indexed target procedures.", func() float64 {
		return float64(db.NumTargets())
	})
	reg.GaugeFunc("esh_index_unique_strands", "Distinct strands in the index.", func() float64 {
		return float64(db.NumUniqueStrands())
	})
	reg.GaugeFunc("esh_index_total_strands", "Corpus strand count |T| (H0 denominator).", func() float64 {
		return float64(db.TotalStrands())
	})
	db.mWritesAdd = reg.Counter("esh_writes_applied_total", "Live corpus writes applied in memory.", "op", "add")
	db.mWritesDel = reg.Counter("esh_writes_applied_total", "Live corpus writes applied in memory.", "op", "delete")
	db.mCompactions = reg.Counter("esh_compactions_total", "Compactions folding live writes and tombstones into a new snapshot generation.")
	db.hCompact = reg.Histogram("esh_compaction_seconds",
		"Wall time per compaction (remap + snapshot persistence + swap).", nil)
	reg.GaugeFunc("esh_index_generation", "Data generation: bumped by every compaction.", func() float64 {
		return float64(db.DataGeneration())
	})
	reg.GaugeFunc("esh_index_pending_writes", "Live writes applied since the last compaction (or load).", func() float64 {
		return float64(db.PendingWrites())
	})
	reg.GaugeFunc("esh_index_tombstones", "Tombstoned (dead but uncompacted) targets.", func() float64 {
		return float64(db.Tombstones())
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

// DBStats is a point-in-time snapshot of database and cache occupancy,
// safe to collect concurrently with Query.
type DBStats struct {
	Targets       int
	UniqueStrands int
	TotalStrands  int
	// Live write-path state, of the same corpus version as the sizes
	// above: LiveTargets excludes tombstoned targets.
	LiveTargets int
	WriteState
	// VCPCache is the row cache's store: Held counts row entries (the sum
	// of its rows' widths) against Budget, Entries the rows, one per
	// distinct query strand.
	VCPCache fifo.Stats
	// Lifetime cache traffic: hits reused a cached pair result, misses
	// computed one (one verifier call each, none for a dead pair).
	// VCPRowsComplete counts query strands whose cached row answered every
	// pair, QueryPrepares those that reached vcp.Prepare because some pair
	// needed a verifier.
	VCPCacheHits    uint64
	VCPCacheMisses  uint64
	VCPRowsComplete uint64
	QueryPrepares   uint64
	// VCPPairsPruned counts pairs rejected by the size-ratio window;
	// VerifierCalls counts vcp.Compute invocations;
	// VerifierCorrespondences counts γ evaluations inside them.
	VCPPairsPruned          uint64
	VerifierCalls           uint64
	VerifierCorrespondences uint64
	// LSHPairsSkipped counts the pairs skipped before any verifier work:
	// forward-dead ones.
	LSHPairsSkipped uint64
	// KernelNanos is the cumulative wall time γ loops spent inside the
	// evaluation kernel; KernelPrefixInstrs / KernelInstrs the
	// γ-invariant and total compiled instruction counts across prepared
	// query strands — the only programs a γ loop runs (their ratio is the
	// fraction of evaluation work hoisted out of it).
	KernelNanos        uint64
	KernelPrefixInstrs uint64
	KernelInstrs       uint64
	// GammaBatches is the cumulative kernel flushes and GammaBatchRows
	// the correspondences those flushes carried.
	GammaBatches   uint64
	GammaBatchRows uint64
	// MemoHits / MemoMisses split the enumerated correspondences by
	// whether a strand's γ-fingerprint memo already held their
	// fingerprints (only misses reach the kernel). Memo is the pool's
	// account: bytes held against the fixed ceiling, and the slot
	// assignments the held memos remember for them.
	MemoHits   uint64
	MemoMisses uint64
	Memo       vcp.MemoStats
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
// state are those of one corpus version; the cache counters are read under
// the cache lock.
func (db *DB) Stats() DBStats {
	c := db.corpus.Load()
	s := DBStats{
		Targets:                 len(c.targets),
		UniqueStrands:           len(c.uniq),
		TotalStrands:            c.total,
		LiveTargets:             len(c.targets) - c.Tombstones,
		WriteState:              c.WriteState,
		VCPCache:                db.rowCacheStats(),
		VCPCacheHits:            db.mCacheHits.Value(),
		VCPCacheMisses:          db.mCacheMisses.Value(),
		VCPRowsComplete:         db.mRows[rowComplete].Value(),
		QueryPrepares:           db.mPrepares.Value(),
		VCPPairsPruned:          db.mPairsPruned.Value(),
		VerifierCalls:           db.mVerifierCalls.Value(),
		VerifierCorrespondences: db.mGamma.Value(),
		LSHPairsSkipped:         db.mLSHSkipped.Value(),
		KernelNanos:             db.mKernelNanos.Value(),
		KernelPrefixInstrs:      db.mPrefixInstrs.Value(),
		KernelInstrs:            db.mKernelInstrs.Value(),
		GammaBatches:            db.mGammaBatches.Value(),
		GammaBatchRows:          db.mGammaRows.Value(),
		MemoHits:                db.mMemoHits.Value(),
		MemoMisses:              db.mMemoMisses.Value(),
		Memo:                    db.memo.Stats(),
		Queries:                 db.mQueries.Value(),
		StageSeconds:            make(map[string]float64, len(queryStages)),
	}
	for _, st := range queryStages {
		s.StageSeconds[st] = db.stageHist[st].Sum()
	}
	return s
}

func (db *DB) rowCacheStats() fifo.Stats {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.rows.Stats()
}

// rowState classifies a query strand by what the row cache held for it.
type rowState uint8

const (
	rowComplete rowState = iota // every pair the query needs is cached
	rowPartial                  // a row exists but some pairs are still owed
	rowAbsent                   // no row
)

var rowStateNames = [...]string{rowComplete: "complete", rowPartial: "partial", rowAbsent: "absent"}

// rowStats is the per-row telemetry accumulator: each chunk counts its
// verifier work locally, the chunks of a row are folded once the queue
// has drained, and the row flushes once — so the pair loop never touches
// an atomic or a span lock.
type rowStats struct {
	state       rowState
	pairs       int   // unique target strands examined
	lshSkipped  int   // skipped: forward-dead
	pruned      int   // rejected by the size-ratio window
	identical   int   // short-circuited as structurally identical
	hits        int   // cache hits (pair results reused)
	misses      int   // cache misses (pair results computed)
	calls       int   // vcp.Compute invocations (one per miss)
	gamma       int   // input correspondences evaluated inside them
	kernelNanos int64 // wall time inside the evaluation kernel
	gammaB      int64 // γ-batch kernel flushes
	gammaRows   int64 // correspondences those flushes carried
	gammaSlots  int64 // rows those flushes had room for (for occupancy)
	memoHits    int64 // enumeration leaves answered by a γ-fingerprint memo
	memoMisses  int64 // enumeration leaves evaluated by the kernel
}

// addWork folds one chunk's verifier work into the row accumulator.
func (rs *rowStats) addWork(d rowStats) {
	rs.calls += d.calls
	rs.gamma += d.gamma
	rs.kernelNanos += d.kernelNanos
	rs.gammaB += d.gammaB
	rs.gammaRows += d.gammaRows
	rs.gammaSlots += d.gammaSlots
	rs.memoHits += d.memoHits
	rs.memoMisses += d.memoMisses
}

// flush adds the row's counts to the DB counters and, when sp is part of
// a live trace, to the shared vcp stage span. The per-pair counters count
// pairs resolved that way, whether this query walked them or a cached
// row's tallies vouch for them.
func (db *DB) flushRowStats(rs rowStats, sp *telemetry.Span) {
	db.mRows[rs.state].Inc()
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
	// Every scanned column not skipped was a candidate.
	lshCands := rs.pairs - rs.lshSkipped
	db.mLSHSkipped.Add(uint64(rs.lshSkipped))
	db.hLSHCands.Observe(float64(lshCands))
	if sp == nil {
		return
	}
	if rs.state == rowComplete {
		sp.AddAttr("rows_complete", 1)
	}
	sp.AddAttr("pairs", float64(rs.pairs))
	sp.AddAttr("lsh_skipped", float64(rs.lshSkipped))
	sp.AddAttr("lsh_candidates", float64(lshCands))
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
