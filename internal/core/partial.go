package core

import (
	"math"
	"sync"

	"repro/internal/asm"
	"repro/internal/stats"
)

// QueryPartial is one database's half-finished view of a query: the
// output of every pipeline stage, stopping just short of scoring. A shard
// returns its QueryPartial (the body of its reply frame); a coordinator
// adds the shards' H0 histograms per strand, lays their targets out in
// corpus order and calls Finalize, which is the one scoring body of a
// single node and a fleet.
//
// Exactness under sharding, piece by piece:
//
//   - H0[i]: the multiplicity of each distinct VCP(query strand i, target
//     strand) over the database's corpus. A pair's VCP is per-pair
//     deterministic and a strand's corpus multiplicity is the sum of its
//     shard-local ones, so the shards' histograms add up to the single
//     node's exactly, and Evidence reads only the histogram.
//   - PartialScore.MaxVCP: a max over the target's own strands — every
//     input lives on the target's shard.
type QueryPartial struct {
	QueryName  string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int // query strands surviving the size filter
	// Weights[i] is the multiplicity of unique query strand i (its LES
	// weight). Unique strands are in first-seen decomposition order,
	// which depends only on the query text — all databases handed the
	// same query agree on it, so histograms merge by index. Read-only:
	// the slice is the query plan's, shared by every query of the
	// procedure.
	Weights []float64
	// H0[i] is query strand i's H0 histogram over this database's live
	// corpus (§3.3.2). Read-only: it may be the one kept with the cached
	// row, shared with every other query of the same strand.
	H0 []*stats.H0Accumulator
	// Targets holds the exact per-target reductions, in index order.
	Targets []PartialScore

	// targets and maxVCP are the pooled slabs DrawTargets cut Targets and
	// its MaxVCPs from, which Release hands back; nil when it drew none.
	targets []PartialScore
	maxVCP  []float64
}

// DrawTargets sets Targets to n zero entries from the engine's pools and,
// for width > 0, cuts each a MaxVCP of width entries, in order, from one
// pooled float slab, which it returns for the caller to fill (nil for
// width 0). Every partial's per-target slabs come from here — the
// engine's, a decoded frame's, a merge's — so Release is their one way
// back. Slabs qp already held are replaced, not released.
func (qp *QueryPartial) DrawTargets(n, width int) []float64 {
	qp.targets = partialScoreSlabs.Get(n)
	qp.Targets = qp.targets
	qp.maxVCP = nil
	if width > 0 {
		qp.maxVCP = floatSlabs.Get(n * width)
		for k := range qp.Targets {
			qp.Targets[k].MaxVCP = qp.maxVCP[k*width : (k+1)*width : (k+1)*width]
		}
	}
	return qp.maxVCP
}

// Release hands the slabs DrawTargets drew back to their pools, for a
// later query to reuse; the caller must be done with Targets, which it
// clears. H0 and Weights are shared with the row cache and the plan and
// are never pooled. A partial that is never released leaves its slabs to
// the collector.
func (qp *QueryPartial) Release() {
	partialScoreSlabs.Put(qp.targets)
	floatSlabs.Put(qp.maxVCP)
	qp.Targets, qp.targets, qp.maxVCP = nil, nil, nil
}

// PartialScore is the shard-exact half of one target's score.
type PartialScore struct {
	Target *Target `json:"target"`
	// MaxVCP[i] is the best VCP(query strand i, t) over the target's
	// strands — the Pr(s_q|t) input of the LES.
	MaxVCP []float64 `json:"max_vcp"`
}

// Finalize turns the partial into a ranked Report: each strand's H0
// evidence from its histogram at the paper's sigmoid k, then GES per
// method (§3.4). It is a pure function of qp, so a single node and a
// coordinator that merged the same histograms and targets produce
// bit-identical scores and rankings. The report's Results come from a
// pool: see Report.Release.
func (qp *QueryPartial) Finalize() *Report {
	scorers := scorerSlabs.Get(len(qp.Weights))
	for i, w := range qp.Weights {
		ev := qp.H0[i].Evidence(w, stats.DefaultSigmoidK)
		scorers[i] = ev.Scorer()
	}
	// The two GES sums of stats.GES, term for term in strand order, with
	// each term taken from the strand's Scorer; each target's rank key is
	// built as it is scored.
	n := len(qp.Targets)
	scored := targetScoreSlabs.Get(n)
	slab := rankSlabs.Get(2 * n)
	for ti, ps := range qp.Targets {
		slog, esh := 0.0, 0.0
		for i, v := range ps.MaxVCP {
			s, e := scorers[i].Scores(v)
			slog += s
			esh += e
		}
		scored[ti] = TargetScore{Target: ps.Target, SLOG: slog, GES: esh}
		slab[ti] = rankEntry{rankKey(esh), int32(ti)}
	}
	rep := &Report{
		QueryName:  qp.QueryName,
		Source:     qp.Source,
		NumBlocks:  qp.NumBlocks,
		NumStrands: qp.NumStrands,
		Results:    targetScoreSlabs.Get(n),
	}
	rep.results = rep.Results
	for k, r := range radixRank(slab[:n], slab[n:]) {
		rep.Results[k] = scored[r.pos]
	}
	scorerSlabs.Put(scorers)
	targetScoreSlabs.Put(scored)
	rankSlabs.Put(slab)
	return rep
}

// rankEntry is one row of a ranking: its order key and its position in
// the list being ranked.
type rankEntry struct {
	key uint64
	pos int32
}

// rankKey maps a score to a key whose ascending order is the ranking's:
// descending by cmp.Compare, so −0 and +0 are equal and every NaN sorts
// last. A negative float's bits already fall as its value rises; a
// non-negative one's are flipped below the sign bit, so they fall too
// and stay under every negative's.
func rankKey(x float64) uint64 {
	if x != x {
		return math.MaxUint64
	}
	b := math.Float64bits(x)
	if x == 0 {
		b = 0
	}
	return b ^ (^uint64(int64(b)>>63) >> 1)
}

// radixRank sorts e stably by ascending key: an LSD radix pass over the
// keys' eight bytes, skipping any byte every key shares. scratch has e's
// length; the result is whichever of the two holds the sorted entries.
// Entries that start in position order therefore keep it among equal
// keys.
func radixRank(e, scratch []rankEntry) []rankEntry {
	if len(e) < 2 {
		return e
	}
	var counts [8][256]int32
	for _, r := range e {
		k := r.key
		counts[0][byte(k)]++
		counts[1][byte(k>>8)]++
		counts[2][byte(k>>16)]++
		counts[3][byte(k>>24)]++
		counts[4][byte(k>>32)]++
		counts[5][byte(k>>40)]++
		counts[6][byte(k>>48)]++
		counts[7][byte(k>>56)]++
	}
	first := e[0].key
	for d := range counts {
		c := &counts[d]
		if int(c[byte(first>>(8*d))]) == len(e) {
			continue
		}
		var sum int32
		for i, k := range c {
			c[i] = sum
			sum += k
		}
		for _, r := range e {
			b := byte(r.key >> (8 * d))
			scratch[c[b]] = r
			c[b]++
		}
		e, scratch = scratch, e
	}
	return e
}

// SlabPool recycles slices whose length grows with the corpus — one entry
// per target, or per target and query strand — so that a served query's
// garbage does not. Every slab has one owner, the code that is last to read
// it, which hands it back with Put; a slab never handed back is left to the
// collector. The zero value is an empty pool, safe for concurrent use.
//
// It is a free list rather than a sync.Pool: under the race detector a
// sync.Pool drops a random quarter of what it is handed, which would make
// what a warm query allocates vary from run to run in exactly the builds
// its allocation guards run in. The list needs no bound of its own. Get
// makes a slab only when it takes none from the list, so the slabs listed
// and the slabs out together never outnumber the most that were out at
// once: an idle pool holds no more than its busiest moment held, which the
// daemons' admission limits bound, and no slab larger than the largest
// asked for.
type SlabPool[T any] struct {
	mu   sync.Mutex
	free [][]T
}

// Get returns a zeroed slice of length n, like make: the most recently
// pooled slab if it is large enough, else a new one (the slab taken is
// left to the collector).
func (sp *SlabPool[T]) Get(n int) []T {
	var s []T
	sp.mu.Lock()
	if k := len(sp.free) - 1; k >= 0 {
		s = sp.free[k]
		sp.free[k] = nil
		sp.free = sp.free[:k]
	}
	sp.mu.Unlock()
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Put zeroes s, so no pooled slab keeps a target alive or leaks a value
// into its next user, and pools it. s must be a slice Get returned, whole,
// and its owner must not touch it again.
func (sp *SlabPool[T]) Put(s []T) {
	if cap(s) == 0 {
		return
	}
	clear(s)
	sp.mu.Lock()
	sp.free = append(sp.free, s)
	sp.mu.Unlock()
}

// The engine's slab pools. A slab is private to the query that got it
// until it is put back.
var (
	partialScoreSlabs SlabPool[PartialScore]
	floatSlabs        SlabPool[float64]
	scorerSlabs       SlabPool[stats.Scorer]
	targetScoreSlabs  SlabPool[TargetScore]
	rankSlabs         SlabPool[rankEntry]
)
