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
	"math"
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
	// LSHMinContainment, when > 0, enables the heuristic tier (see
	// sketch.Config.MinContainment; sketch.SuggestedMinContainment is the
	// calibrated setting): stage 3 also skips pairs the sketches call
	// dissimilar, so rankings can change. The default 0 is the sound
	// tier, whose every skip is a provable zero. The sketches always use
	// the default banding (sketch.DefaultBands × sketch.DefaultRows).
	LSHMinContainment float64
}

// CheckSigmoidK and CheckMinContainment hold the two float options to the
// values the engine can score with. A NaN or infinite setting turns every
// score into a NaN that no reply can encode, so they are refused where a
// value enters the program: flag parsing, snapshot and manifest decoding.
func CheckSigmoidK(k float64) error {
	if !(k >= 0) || math.IsInf(k, 1) {
		return fmt.Errorf("sigmoid steepness %v: want a finite value >= 0", k)
	}
	return nil
}

// CheckMinContainment: see CheckSigmoidK.
func CheckMinContainment(c float64) error {
	if !(c >= 0 && c <= 1) {
		return fmt.Errorf("containment threshold %v: want a value in [0, 1]", c)
	}
	return nil
}

// CheckSizeRatio: see CheckSigmoidK. The §5.5 window keeps target strands
// of [r, 1/r] times the query's variables, so a ratio above 1 (or an
// infinite one) keeps none and every pair is pruned unverified; 0 selects
// the paper's 0.5.
func CheckSizeRatio(r float64) error {
	if !(r >= 0 && r <= 1) {
		return fmt.Errorf("size ratio %v: want a value in [0, 1]", r)
	}
	return nil
}

// Ceilings for CheckCount on the two VCP counts that size work rather
// than select behaviour: Samples is the length of every kernel lane vector
// (times the γ-batch width and the program's registers), MaxCorrespondences
// the γ enumeration of one pair (eight inputs have 8! = 40,320).
const (
	MaxVCPSamples         = 1 << 10
	MaxVCPCorrespondences = 1 << 16
)

// CheckCount holds an integer option to [0, ceiling] (math.MaxInt where a
// count has no ceiling): no count is negative, and 0 selects the default.
func CheckCount(n, ceiling int) error {
	switch {
	case n < 0:
		return fmt.Errorf("count %d: want a value >= 0", n)
	case n > ceiling:
		return fmt.Errorf("count %d: want at most %d", n, ceiling)
	}
	return nil
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

	// markPool recycles the n-wide []bool scratch slices stage 3 uses
	// for heuristic candidate marking, so a query of many strands does
	// not allocate one per strand.
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
	hLSHCands      *telemetry.Histogram
	hSketchBuild   *telemetry.Histogram
	mWritesAdd     *telemetry.Counter
	mWritesDel     *telemetry.Counter
	mCompactions   *telemetry.Counter
	hCompact       *telemetry.Histogram
}

// NewDB returns an empty database.
func NewDB(opts Options) *DB {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	db := &DB{
		opts:      opts,
		newEval:   vcp.NewEvaluator,
		memo:      vcp.NewMemoPool(memoBudgetBytes),
		byKey:     map[string]int{},
		rows:      fifo.New[string, *vcpRow](rowCachePairs, nil),
		sketchCfg: sketch.Config{MinContainment: opts.LSHMinContainment}.Normalized(),
	}
	db.corpus.Store(&corpus{sketchIdx: db.newIndex(nil)})
	db.initMetrics()
	return db
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
