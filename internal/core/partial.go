package core

import (
	"math"

	"repro/internal/asm"
	"repro/internal/stats"
)

// QueryPartial is one database's half-finished view of a query: the
// output of every pipeline stage, stopping just short of scoring. A shard
// returns its QueryPartial (serialized by the server layer); a coordinator
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
	// SigmoidK is the engine's Esh steepness override (0 = paper's
	// k=10) and MinContainment its tier (0 = sound): a coordinator must
	// refuse to merge partials computed under other settings.
	SigmoidK, MinContainment float64
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
	// DataGeneration is the compaction generation the partial was
	// computed under; PendingWrites the number of uncompacted live
	// writes. A coordinator merging shard partials must refuse either
	// being nonzero: it places targets by its manifest's target lists,
	// which describe the shards' generation-zero snapshots.
	DataGeneration uint64
	PendingWrites  int
}

// PartialScore is the shard-exact half of one target's score.
type PartialScore struct {
	Target *Target `json:"target"`
	// MaxVCP[i] is the best VCP(query strand i, t) over the target's
	// strands — the Pr(s_q|t) input of the LES.
	MaxVCP []float64 `json:"max_vcp"`
}

// Finalize turns the partial into a ranked Report: each strand's H0
// evidence from its histogram, then GES per method (§3.4). It is a pure
// function of qp, so a single node and a coordinator that merged the
// same histograms and targets produce bit-identical scores and rankings.
func (qp *QueryPartial) Finalize() *Report {
	scorers := make([]stats.Scorer, len(qp.Weights))
	for i, w := range qp.Weights {
		ev := qp.H0[i].Evidence(w, qp.SigmoidK)
		scorers[i] = ev.Scorer()
	}
	// The two GES sums of stats.GES, term for term in strand order, with
	// each term taken from the strand's Scorer; each target's rank key is
	// built as it is scored.
	n := len(qp.Targets)
	scored := make([]TargetScore, n)
	slab := make([]rankEntry, 2*n)
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
		Results:    make([]TargetScore, n),
	}
	for k, r := range radixRank(slab[:n], slab[n:]) {
		rep.Results[k] = scored[r.pos]
	}
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
