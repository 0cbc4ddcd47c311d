// Package vcp implements the paper's Algorithm 2: computing the Variable
// Containment Proportion between two strands by enumerating input
// correspondences γ, realizing the input-equality assumptions through
// shared sample slots, and counting query variables that have an
// equivalent counterpart in the target strand.
//
// The §5.5 engineering heuristics are implemented here as well: input
// correspondences are one-to-one, total on the query inputs and
// type-preserving; trivially small strands and grossly size-mismatched
// pairs are rejected before any verifier work; and per-strand evaluation
// vectors are computed once and reused across correspondences (the
// batched-query optimization).
package vcp

import (
	"time"

	"repro/internal/ivl"
	"repro/internal/smt"
	"repro/internal/strand"
)

// Config tunes the VCP computation. The zero value selects the paper's
// settings via Default.
type Config struct {
	// Samples is the number of evaluation vectors (verifier precision).
	Samples int
	// MinVars rejects query strands with fewer defined variables
	// (paper §5.5 uses 5).
	MinVars int
	// SizeRatio rejects target strands whose variable count is below
	// SizeRatio or above 1/SizeRatio times the query's (paper: 0.5).
	SizeRatio float64
	// MaxCorrespondences caps the γ enumeration per strand pair.
	MaxCorrespondences int
}

// gammaWidth is the γ-batch width G: the batched kernel accumulates up
// to G complete correspondences and evaluates them through one suffix
// execution over G×Samples lanes. 8 is wide enough to amortize
// instruction dispatch and overlap the fingerprint fold chains, narrow
// enough that a typical pair (a handful of correspondences) still fills
// most of its final batch. Every width produces byte-identical scores
// and Correspondences counts (NewReferenceEvaluator is how tests vary
// it) — batching changes dispatch, not semantics.
const gammaWidth = 8

// Default returns the configuration used in the paper's experiments.
func Default() Config {
	return Config{
		Samples:            smt.DefaultSamples,
		MinVars:            5,
		SizeRatio:          0.5,
		MaxCorrespondences: 96, // role signatures order the search; see Compute
	}
}

// normalized fills in zero fields.
func (c Config) normalized() Config {
	d := Default()
	if c.Samples <= 0 {
		c.Samples = d.Samples
	}
	if c.MinVars <= 0 {
		c.MinVars = d.MinVars
	}
	if c.SizeRatio <= 0 {
		c.SizeRatio = d.SizeRatio
	}
	if c.MaxCorrespondences <= 0 {
		c.MaxCorrespondences = d.MaxCorrespondences
	}
	return c
}

// Prepared caches a strand's compiled evaluation program and — under the
// identity slot assignment, used when the strand is the target — the set
// of its variables' value-vector fingerprints. Preparation happens once
// per unique strand; VCP computations against many counterparts reuse it.
type Prepared struct {
	S *strand.Strand
	// prog is the strand compiled to flat code (query-side evaluation).
	prog *smt.Program
	// fpSet is the set of variable-vector fingerprints under the
	// identity slot assignment (target-side matching).
	fpSet fpSet
	// varying and consts split the strand's definitions by what a score
	// needs of them on the query side: varying lists the distinct
	// γ-dependent definition registers with the number of definitions
	// each holds, consts the fingerprints of the γ-invariant definitions
	// — constants of the strand at samples, the Prepare-time sample
	// count. A correspondence matches consts-in-target (the same for
	// every γ of a pair) + Σ Mult over the varying fingerprints in the
	// target: every definition counted exactly once.
	varying []smt.DefClass
	consts  []uint64
	samples int
	// memo holds the varying fingerprints of every slot assignment
	// evaluated so far with this strand on the query side (see memo.go).
	// It is shared by every Evaluator over this Prepared.
	memo *memo
	// sigs holds one syntactic role signature per input (by input
	// index): a hash of the operator contexts the input appears in.
	// Matching inputs across strands almost always have equal
	// signatures, so the γ search tries equal-signature slots first.
	sigs []uint64
	// key is the strand's canonical structural key (for caching).
	key string
	err error
}

// roleSignatures computes a context hash per strand input. The input
// set is materialized once up front: the expression walk consults it per
// variable reference, and a linear scan there made the walk
// O(refs × inputs) on store-heavy strands.
func roleSignatures(s *strand.Strand) []uint64 {
	inputSet := make(map[string]bool, len(s.Inputs))
	for _, in := range s.Inputs {
		inputSet[in.Name] = true
	}
	sig := make(map[string]uint64, len(s.Inputs))
	for _, st := range s.Stmts {
		var walk func(e ivl.Expr, parentOp string, pos int)
		walk = func(e ivl.Expr, parentOp string, pos int) {
			switch t := e.(type) {
			case ivl.VarExpr:
				if inputSet[t.V.Name] {
					// Order-independent accumulation: sum of mixed
					// context hashes.
					h := hash64(parentOp)*31 + uint64(pos) + 1
					h ^= h >> 27
					h *= 0x94d049bb133111eb
					sig[t.V.Name] += h
				}
			case ivl.UnExpr:
				walk(t.X, "u"+t.Op.String(), 0)
			case ivl.BinExpr:
				op := t.Op.String()
				if t.Op.IsCommutative() {
					walk(t.X, op, 0)
					walk(t.Y, op, 0)
				} else {
					walk(t.X, op, 0)
					walk(t.Y, op, 1)
				}
			case ivl.IteExpr:
				walk(t.Cond, "ite", 0)
				walk(t.Then, "ite", 1)
				walk(t.Else, "ite", 2)
			case ivl.TruncExpr:
				walk(t.X, "trunc", 0)
			case ivl.SextExpr:
				walk(t.X, "sext", 0)
			case ivl.LoadExpr:
				walk(t.Mem, "load", 0)
				walk(t.Addr, "load", 1)
			case ivl.StoreExpr:
				walk(t.Mem, "store", 0)
				walk(t.Addr, "store", 1)
				walk(t.Val, "store", 2)
			case ivl.CallExpr:
				for i, a := range t.Args {
					walk(a, t.Sym, i)
				}
			}
		}
		walk(st.Rhs, "=", 0)
	}
	out := make([]uint64, len(s.Inputs))
	for i, in := range s.Inputs {
		out[i] = sig[in.Name]
	}
	return out
}

func hash64(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Prepare compiles the strand and evaluates it on the batched kernel under
// its own slot assignment. A strand CompileStrand refuses is kept with
// its error (Err) and scores 0 against everything.
func Prepare(s *strand.Strand, cfg Config) *Prepared {
	cfg = cfg.normalized()
	p := &Prepared{S: s, key: s.CanonicalKey()}
	prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
	if err != nil {
		p.err = err
		return p
	}
	p.prog = prog
	identity := make([]int, len(s.Inputs))
	for i := range identity {
		identity[i] = i
	}
	kern := smt.AcquireKernel()
	defer smt.ReleaseKernel(kern) // fps aliases kernel buffers
	kern.Bind(prog, cfg.Samples, 1)
	fps := kern.Fingerprints(identity)
	p.fpSet = newFPSet(fps)
	p.varying, p.samples = prog.Varying(), cfg.Samples
	for _, d := range prog.ConstDefs() {
		p.consts = append(p.consts, fps[d])
	}
	p.memo = &memo{nIn: len(s.Inputs), nd: len(p.varying)}
	p.sigs = roleSignatures(s)
	return p
}

// Key returns the canonical structural key of the underlying strand.
func (p *Prepared) Key() string { return p.key }

// Err returns any evaluation error captured at preparation time.
func (p *Prepared) Err() error { return p.err }

// InstrCounts returns the compiled program's γ-invariant prefix length
// and total instruction count (0, 0 when preparation failed), for the
// engine's hoisting telemetry.
func (p *Prepared) InstrCounts() (prefix, total int) {
	if p.prog == nil {
		return 0, 0
	}
	return p.prog.InstrCounts()
}

// SizeCompatible applies the §5.5 size-ratio window.
func SizeCompatible(q, t *strand.Strand, ratio float64) bool {
	nq, nt := float64(q.NumVars()), float64(t.NumVars())
	if nq == 0 || nt == 0 {
		return false
	}
	return nt >= nq*ratio && nt <= nq/ratio
}

// Stats reports the work one Compute call performed, for telemetry:
// Correspondences is the number of input correspondences γ whose
// evaluation vectors were matched against the target (each one is a
// probabilistic-verifier invocation, whether its vector was computed
// here or found in the memo); KernelNanos is the wall time spent
// strictly inside kernel evaluation — batch flushes, including binding
// the kernel to the strand and staging the rows — excluding candidate
// ordering, the enumeration itself, memo traffic and fpSet matching, so
// the metric built on it does not overcount (a reference evaluator at
// width 0 times its interpreter calls instead). MemoHits and MemoMisses
// split the enumeration leaves the batched path buffered by whether the
// memo already held their fingerprints; only misses reach the kernel.
// Batches counts kernel flushes (a buffer of nothing but hits runs
// none), BatchRows the miss rows they carried and BatchSlots the rows
// they had room for (width × Batches); BatchRows/BatchSlots is the mean
// occupancy. Leaves buffered past a perfect match or the cap are
// discarded uncounted, so BatchRows + MemoHits ≥ Correspondences.
type Stats struct {
	Correspondences int
	KernelNanos     int64
	Batches         int64
	BatchRows       int64
	BatchSlots      int64
	MemoHits        int64
	MemoMisses      int64
}

// Compute returns VCP(q, t): the maximal fraction of q's variables with
// an input-output-equivalent variable in t over all type-preserving,
// injective, total-on-q input correspondences. It returns 0 when no
// valid correspondence exists.
func Compute(q, t *Prepared, cfg Config) float64 {
	v, _ := ComputeWithStats(q, t, cfg)
	return v
}

// ComputeWithStats is Compute plus a work report, so call sites can
// account verifier effort without a second pass.
func ComputeWithStats(q, t *Prepared, cfg Config) (float64, Stats) {
	ev := NewEvaluator(q, cfg)
	defer ev.Close()
	return ev.Compute(t)
}

// Evaluator computes VCP(q, ·) for one query strand at a time against
// many targets. It owns every buffer the γ search needs — the kernel
// included — so a pair whose correspondences are all in q's memo
// allocates nothing and never touches a kernel. The kernel is taken from
// smt's pool on the evaluator's first memo miss and kept across Reset
// until Close; it is bound to a strand's program at that strand's first
// miss, so scratch follows the evaluators at work, not the strands they
// have met. Not safe for concurrent use (the Prepareds it reads are).
type Evaluator struct {
	q   *Prepared
	cfg Config
	// g is the γ-batch width, fixed at construction: leaves are buffered
	// and scored g at a time. g = 0, which only NewReferenceEvaluator can
	// set, is the scalar reference: it buffers nothing and never consults
	// the memo.
	g int
	// kern is the evaluator's kernel (nil until the first miss) and bound
	// whether it is bound to q's program.
	kern  *smt.Kernel
	bound bool

	// State of the Compute call in progress.
	t         *Prepared
	constHits int // q.consts found in t: the γ-independent part of every score
	best      float64
	tried     int
	st        Stats

	// Scratch, grown on demand and reused across pairs. assignment maps
	// q input index → target slot; slot candidates for input i are
	// cands[candOff[i]:candOff[i+1]]. rows buffers up to g complete
	// assignments (row r at rows[r*nIn:]) and hash[r] its memo hash;
	// hit[r] is row r's varying fingerprints during a flush (nil between
	// flushes), from the memo or — for the rows missIdx lists, the r-th of
	// them being kernel row r — fresh from the kernel.
	assignment []int
	usedSlot   []bool
	cands      []int
	candOff    []int
	rows       []int
	buffered   int
	hash       []uint64
	hit        [][]uint64
	missIdx    []int
}

// NewEvaluator prepares a reusable evaluator for the query strand: the
// batched kernel at gammaWidth behind the strand's memo. Callers must
// Close it to return its kernel, if it took one, to smt's pool.
func NewEvaluator(q *Prepared, cfg Config) *Evaluator {
	return NewReferenceEvaluator(q, cfg, gammaWidth)
}

// NewReferenceEvaluator is NewEvaluator at a chosen γ-batch width; width
// 0 is the scalar interpreter, smt.Program.Fingerprints (one full pass
// per sample, one evaluation per correspondence, no memo). It exists so
// tests can hold the production path to its references; nothing a binary
// or an input can set reaches it. It is exported, in a non-test file,
// because core's differentials reach it too, and a _test.go file is
// visible only to its own package.
func NewReferenceEvaluator(q *Prepared, cfg Config, width int) *Evaluator {
	ev := &Evaluator{cfg: cfg.normalized(), g: width}
	ev.Reset(q)
	return ev
}

// Reset moves the evaluator to another query strand, keeping its
// configuration, width, scratch and kernel; the kernel is re-bound, at
// the strand's Prepare-time sample count, when the new strand first
// misses its memo.
func (ev *Evaluator) Reset(q *Prepared) {
	ev.q, ev.bound = q, false
}

// Close returns the evaluator's kernel, if it took one, to smt's pool.
// Only Reset may follow.
func (ev *Evaluator) Close() {
	if ev.kern != nil {
		smt.ReleaseKernel(ev.kern)
		ev.kern, ev.bound = nil, false
	}
}

// sized returns s with length n, reallocating only when it must.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Compute returns VCP(ev.q, t) plus the work report. Scores, rankings
// and Correspondences counts are Float64bits-identical across every
// γ-batch width, a cold, warm or evicted memo, and the scalar reference:
// γ candidates are enumerated in the same order and scored in that
// order, a buffered leaf past a perfect match or the MaxCorrespondences
// cap is discarded uncounted at flush — exactly the candidates the
// unbatched loop would never have evaluated — and the fingerprints
// scored for a leaf are bit-equal to a lone evaluation under its
// assignment, whether they come from the kernel or the memo.
func (ev *Evaluator) Compute(t *Prepared) (float64, Stats) {
	q := ev.q
	if q.err != nil || t.err != nil || q.S.NumVars() == 0 {
		return 0, Stats{}
	}
	qIn, tIn := q.S.Inputs, t.S.Inputs
	if len(qIn) > len(tIn) {
		return 0, Stats{} // γ must be injective and total on q's inputs
	}
	ev.t, ev.best, ev.tried, ev.st = t, 0, 0, Stats{}
	ev.constHits = 0
	for _, h := range q.consts {
		if t.fpSet.has(h) {
			ev.constHits++
		}
	}

	ev.assignment = sized(ev.assignment, len(qIn))
	ev.usedSlot = sized(ev.usedSlot, len(tIn))
	clear(ev.usedSlot)
	ev.rows = sized(ev.rows, ev.g*len(qIn))
	ev.hash = sized(ev.hash, ev.g)
	ev.hit = sized(ev.hit, ev.g)

	// Candidate slots per query input, equal-role-signature slots first:
	// matching inputs across real compilations almost always play the
	// same syntactic role, so the right correspondence is found within
	// the first few attempts and the cap rarely bites.
	ev.candOff = sized(ev.candOff, len(qIn)+1)
	ev.cands = ev.cands[:0]
	for i := range qIn {
		ev.candOff[i] = len(ev.cands)
		for _, same := range [2]bool{true, false} {
			for slot := range tIn {
				if tIn[slot].Type == qIn[i].Type && (q.sigs[i] == t.sigs[slot]) == same {
					ev.cands = append(ev.cands, slot)
				}
			}
		}
	}
	ev.candOff[len(qIn)] = len(ev.cands)

	ev.enumerate(0)
	ev.flush() // partial final buffer
	ev.t = nil
	ev.st.Correspondences = ev.tried
	return ev.best, ev.st
}

// enumerate extends the partial assignment at query input i through
// every injective type-preserving completion, in candidate order.
func (ev *Evaluator) enumerate(i int) {
	// Buffered leaves count against the cap so enumeration halts at
	// exactly the candidate where the unbuffered loop would.
	if ev.best >= 1.0 || ev.tried+ev.buffered >= ev.cfg.MaxCorrespondences {
		return
	}
	if i == len(ev.assignment) {
		ev.leaf()
		return
	}
	for _, slot := range ev.cands[ev.candOff[i]:ev.candOff[i+1]] {
		if ev.usedSlot[slot] {
			continue
		}
		ev.usedSlot[slot] = true
		ev.assignment[i] = slot
		ev.enumerate(i + 1)
		ev.usedSlot[slot] = false
	}
}

// leaf takes one complete assignment: the batched path buffers it and
// flushes every g leaves; the scalar reference (g = 0) evaluates and
// scores it on the spot (only the interpreter call is timed).
func (ev *Evaluator) leaf() {
	if ev.g == 0 {
		ev.tried++
		t0 := time.Now()
		fps := ev.q.prog.Fingerprints(ev.assignment, ev.q.samples)
		ev.st.KernelNanos += time.Since(t0).Nanoseconds()
		matched := 0
		for _, h := range fps { // per definition: the reference form
			if ev.t.fpSet.has(h) {
				matched++
			}
		}
		ev.advance(matched)
		return
	}
	copy(ev.rows[ev.buffered*len(ev.assignment):], ev.assignment)
	ev.buffered++
	if ev.buffered == ev.g {
		ev.flush()
	}
}

// flush resolves the buffered leaves — memo hits under one read lock,
// the misses through ONE kernel suffix execution over misses·k lanes,
// their rows then copied into the memo — and scores all of them in
// enumeration order. The order is what keeps the result exact: best and
// tried must advance leaf by leaf as the unbuffered loop's would, so
// that a perfect match or the cap discards exactly the leaves behind it.
func (ev *Evaluator) flush() {
	n := ev.buffered
	if n == 0 {
		return
	}
	ev.buffered = 0
	q := ev.q
	m, nIn := q.memo, len(ev.assignment)
	ev.missIdx = ev.missIdx[:0]
	m.mu.RLock()
	for r := 0; r < n; r++ {
		a := ev.rows[r*nIn : (r+1)*nIn]
		ev.hash[r] = hashSlots(a)
		var ok bool
		if ev.hit[r], ok = m.find(a, ev.hash[r]); !ok {
			ev.missIdx = append(ev.missIdx, r)
		}
	}
	m.mu.RUnlock()
	misses := len(ev.missIdx)
	ev.st.MemoHits += int64(n - misses)
	ev.st.MemoMisses += int64(misses)

	if misses > 0 {
		t0 := time.Now()
		if ev.kern == nil {
			ev.kern = smt.AcquireKernel()
		}
		if !ev.bound {
			ev.kern.Bind(q.prog, q.samples, ev.g)
			ev.bound = true
		}
		for r, i := range ev.missIdx {
			ev.kern.BindRow(r, ev.rows[i*nIn:(i+1)*nIn])
		}
		fresh := ev.kern.VaryingRows(misses)
		ev.st.KernelNanos += time.Since(t0).Nanoseconds()
		ev.st.Batches++
		ev.st.BatchRows += int64(misses)
		ev.st.BatchSlots += int64(ev.g)
		m.add(ev.rows, ev.missIdx, ev.hash, fresh)
		for r, i := range ev.missIdx {
			ev.hit[i] = fresh[r*m.nd : (r+1)*m.nd]
		}
	}

	for r := 0; r < n; r++ {
		fps := ev.hit[r]
		ev.hit[r] = nil // do not pin an evicted chunk past this pair
		// A perfect match or the cap mid-buffer discards the remaining
		// leaves uncounted: the unbuffered loop would have stopped
		// before evaluating them.
		if ev.best >= 1.0 || ev.tried >= ev.cfg.MaxCorrespondences {
			continue
		}
		ev.tried++
		matched := ev.constHits
		for i, h := range fps {
			if ev.t.fpSet.has(h) {
				matched += q.varying[i].Mult
			}
		}
		ev.advance(matched)
	}
}

// advance takes the number of q's definitions one correspondence matched
// in the target and raises best to its proportion. Counting (tried++)
// happens at the caller so both paths charge correspondences identically.
func (ev *Evaluator) advance(matched int) {
	if v := float64(matched) / float64(ev.q.S.NumVars()); v > ev.best {
		ev.best = v
	}
}
