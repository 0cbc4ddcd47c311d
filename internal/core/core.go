// Package core is the Esh engine: it indexes a database of binary target
// procedures (disassembly → CFG → lifting → strand decomposition →
// verifier preparation) and answers similarity queries, producing the
// ranked GES scores the paper's evaluation is built on, for the full
// method and for its S-LOG sub-method (§6.2). The third sub-method, S-VCP,
// reads the reverse VCP direction, which nothing served needs: package
// experiments computes it.
package core

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/fifo"
	"repro/internal/lift"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// PrefilterLSH is ignored, like the Options.Prefilter field it was a value
// of; both stay declared only until ROADMAP A removes them from
// cmd/eshbench.
const PrefilterLSH = "lsh"

// Retrieval modes: how stage 3 finds the candidate target strands for
// each query strand.
const (
	// RetrievalScan walks every unique target strand per query strand,
	// testing each pair on its own. The zero Options value and the
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
	// Prefilter and PrefilterLSH are ignored: every database tests
	// forward injectability, and LSHMinContainment alone decides whether
	// the heuristic tier exists. They stay declared only until ROADMAP A
	// removes them from cmd/eshbench.
	Prefilter string
	// LSHBands and LSHRows shape the MinHash signature of the sketch
	// index (0 selects sketch.DefaultBands / sketch.DefaultRows).
	LSHBands int
	LSHRows  int
	// LSHMinContainment, when > 0, enables the heuristic tier (see
	// sketch.Config.MinContainment; sketch.SuggestedMinContainment is the
	// calibrated setting): stage 3 also skips pairs the sketches call
	// dissimilar, so rankings can change. The default 0 is the sound
	// tier, whose every skip is a provable zero.
	LSHMinContainment float64
	// Retrieval selects the heuristic tier's stage-3 candidate source:
	// RetrievalScan ("" or "scan") or RetrievalProbe ("probe"). It takes
	// effect with LSHMinContainment > 0 only; a probing database builds
	// its table when it is loaded, or on its first query when it was
	// filled by AddTarget.
	Retrieval string
}

// memoBudgetBytes is the one budget every γ-fingerprint memo in a DB is
// charged to (vcp.MemoPool). A memo fills only on the query side of a pair,
// so what is charged is the in-flight queries' strands, each released when
// its query returns; an indexed strand is only ever matched against and
// its memo stays empty. It is a constant, not a setting: past the working
// set of the queries in flight more budget buys nothing, below it the cost
// is re-evaluation, never a different answer (DESIGN §10.6).
const memoBudgetBytes = 128 << 20

// rowCachePairs is the row cache's budget in row entries (the sum of its
// rows' widths: one entry per unique target strand per cached query
// strand). At 8 bytes and three bits an entry the ceiling is 16.75 MiB; a
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
// AddTarget, then issue Query calls; or serve it and write through
// ApplyAdd, ApplyRemove and Compact while it answers. The configuration is
// decided before the DB exists and never changes: opts and sketchCfg are
// written once, by NewDB. What changes is the corpus, and it changes by
// replacement: everything a reader may see is one immutable corpus value
// (corpus.go) behind one pointer. A query loads it once; a writer builds
// the successor under writeMu and stores it. Query is safe for concurrent
// use with itself and with the live write path. AddTarget is not safe
// beside queries: it is the bulk path, and builds its successors over the
// same arrays.
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

	// corpus is the current version of everything a reader may see.
	corpus atomic.Pointer[corpus]

	// writeMu serializes writers (AddTarget, ApplyAdd, ApplyRemove,
	// Replay*, Compact) and guards the state only they use: byKey, the
	// canonical key -> index in uniq map of the current corpus, and the
	// journal acknowledged writes are logged to (nil: writes are
	// memory-only, e.g. replay or tests). Readers never take it. Compact
	// holds it across snapshot persistence, freezing writers but never
	// readers.
	writeMu sync.Mutex
	byKey   map[string]int
	journal Journal

	sketchCfg sketch.Config
	// retrMaxDelta is how many strands a built probe table may fall behind
	// before a live add rebuilds it (tests in this package shrink it).
	retrMaxDelta int

	// markPool recycles the n-wide []bool scratch slices stage 3 uses
	// for heuristic candidate marking and probe deduplication, so a
	// query of many strands does not allocate one per strand.
	markPool sync.Pool

	// rows holds one dense row per query-strand key (rowcache.go): VCP
	// indexed by unique-strand number, each row charged its width against
	// rowCachePairs (tests in this package swap in a smaller store).
	// rowEpoch names the strand numbering the rows are indexed by; only a
	// renumbering Compact moves it, in the critical section that swaps the
	// rows and publishes the corpus of that numbering.
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

// NewDB returns an empty database. It panics on a mode string outside
// the Retrieval* constants: modes that arrive from outside
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

		retrMaxDelta: retrievalMaxDelta,
	}
	db.corpus.Store(&corpus{sketchIdx: db.newIndex(nil), probe: db.newProbeTable(nil, false)})
	db.initMetrics()
	return db, nil
}

// NumTargets returns the number of indexed procedures (live and
// tombstoned alike; compaction drops the dead ones).
func (db *DB) NumTargets() int { return len(db.corpus.Load().targets) }

// NumUniqueStrands returns the number of distinct strands in the index.
func (db *DB) NumUniqueStrands() int { return len(db.corpus.Load().uniq) }

// TotalStrands returns |T|, the corpus strand count used for H0. It
// tracks the live corpus: tombstoning a target subtracts its strand
// multiplicities immediately.
func (db *DB) TotalStrands() int { return db.corpus.Load().total }

// Targets returns the indexed targets (do not modify), including
// tombstoned ones. Use LiveTargets for the serving view.
func (db *DB) Targets() []*Target { return db.corpus.Load().targets }

// LiveTargets returns the live (non-tombstoned) targets in add order —
// the view queries rank over (do not modify the targets).
func (db *DB) LiveTargets() []*Target {
	c := db.corpus.Load()
	if c.live == nil {
		return c.targets
	}
	out := make([]*Target, 0, len(c.targets)-c.Tombstones)
	for ti, t := range c.targets {
		if c.live[ti] {
			out = append(out, t)
		}
	}
	return out
}

// WriteState returns where the corpus stands on the write path —
// generation, journal high-water mark, uncompacted writes and tombstones —
// all four read off one version, so together they describe a state the
// database was in. The four accessors below read one field each.
func (db *DB) WriteState() WriteState { return db.corpus.Load().WriteState }

// DataGeneration returns the compaction generation of the in-memory
// corpus (zero until the first compaction).
func (db *DB) DataGeneration() uint64 { return db.WriteState().Generation }

// WALSeq returns the journal high-water mark: the sequence number of
// the last write applied to the in-memory corpus (zero when none).
func (db *DB) WALSeq() uint64 { return db.WriteState().WALSeq }

// PendingWrites returns the number of live writes applied since the
// last compaction (or snapshot load).
func (db *DB) PendingWrites() int { return db.WriteState().PendingWrites }

// Tombstones returns the number of tombstoned, not-yet-compacted
// targets.
func (db *DB) Tombstones() int { return db.WriteState().Tombstones }

// Options returns the engine options the database was built with.
func (db *DB) Options() Options { return db.opts }

// Shard returns the snapshot's shard identity (zero when the corpus is
// unsharded).
func (db *DB) Shard() ShardInfo { return db.shard }

// SketchConfig returns the banding of the DB's sketch index.
func (db *DB) SketchConfig() sketch.Config { return db.sketchCfg }

// heuristic reports whether the heuristic tier exists: stage 3 then also
// skips the pairs the sketches call dissimilar.
func (db *DB) heuristic() bool { return db.sketchCfg.MinContainment > 0 }

// probeOn reports whether stage 3 probes a retrieval table: the
// heuristic tier's loop, and the one condition under which a table is
// ever built.
func (db *DB) probeOn() bool {
	return db.opts.Retrieval == RetrievalProbe && db.heuristic()
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
