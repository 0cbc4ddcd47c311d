package core

import (
	"cmp"
	"slices"

	"repro/internal/asm"
	"repro/internal/stats"
)

// QueryPartial is one database's half-finished view of a query: the
// output of every pipeline stage whose result is exact under sharding,
// stopping just short of the one quantity that is not — the corpus-wide
// H0 estimate. A shard returns its QueryPartial (serialized by the
// server layer); a coordinator splices the shards' rows and reductions
// back into the union corpus's strand order and calls Finalize with the
// union counts, running the same float operations in the same order a
// single node holding the whole corpus would.
//
// Exactness under sharding, piece by piece:
//
//   - Rows: VCP(query strand, target strand) is a per-pair computation;
//     a shard computes exactly the columns for the strands it holds,
//     bitwise equal to the same columns on a single node (kernel and
//     candidate decisions are per-pair deterministic).
//   - PartialScore.MaxVCP: a max over the target's own strands — every
//     input lives on the target's shard.
//   - H0 (the part deferred to Finalize): a corpus-weighted mean over
//     ALL unique strands in index order. Floating-point addition is not
//     associative, so per-shard partial sums would NOT merge
//     bit-identically; instead the coordinator rebuilds the dense
//     global rows and recomputes the mean in global order.
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
	// same query agree on it, so rows merge by index. Read-only: the
	// slice is the query plan's, shared by every query of the procedure.
	Weights []float64
	// Rows[i][j] = VCP(query strand i, target strand j), dense over
	// this database's unique-strand index order. Read-only: a row may be
	// the engine's cached row, shared with every other query of the same
	// strand.
	Rows [][]float64
	// Targets holds the exact per-target reductions, in index order.
	Targets []PartialScore
	// DataGeneration is the compaction generation the partial was
	// computed under; PendingWrites the number of uncompacted live
	// writes. A coordinator merging shard partials must refuse either
	// being nonzero: its manifest's union counts describe the shards'
	// generation-zero snapshots, so a drifted shard would finalize
	// against stale multiplicities and corrupt scores.
	DataGeneration uint64
	PendingWrites  int
}

// PartialScore is the shard-exact half of one target's score.
type PartialScore struct {
	Target *Target
	// MaxVCP[i] is the best VCP(query strand i, t) over the target's
	// strands — the Pr(s_q|t) input of the LES.
	MaxVCP []float64
}

// Finalize turns the partial into a ranked Report by estimating H0 from
// the rows under the given per-strand corpus multiplicities (counts[j]
// weights Rows[i][j]; §3.3.2) and composing GES per method. It is a
// pure function of (qp, counts): the single-node Query path and a
// coordinator that reassembled global rows from shards call it with
// bit-identical inputs and therefore produce bit-identical scores and
// rankings.
func (qp *QueryPartial) Finalize(counts []int) *Report {
	return qp.finalize(&corpus{counts: counts}, nil)
}

// finalize is Finalize as the database calls it on its own partial, over
// the corpus version c the partial was computed against.
//
// c.h0Order, when non-nil, is the H0 accumulation order: its k-th entry
// indexes the k-th strand to fold into the H0 mean. The live write path sets
// it after tombstones: floating-point addition is order-sensitive, so
// bit-identity with a from-scratch rebuild of the surviving corpus requires
// replaying the rebuild's first-seen strand order, not the dirty index order
// with dead strands (counts 0, absent from the order) masked.
//
// cached[i], when non-nil, is the cached row Rows[i] was handed out of. The
// strand's H0 means are read off the row if it holds them for c.countsVer
// and left with it otherwise: the same accumulator over the same columns in
// the same order, so the same bits, summed once per write instead of once
// per query.
func (qp *QueryPartial) finalize(c *corpus, cached []*vcpRow) *Report {
	counts, order, ver := c.counts, c.h0Order, c.countsVer
	scorers := make([]stats.Scorer, len(qp.Weights))
	for i, w := range qp.Weights {
		var row *vcpRow
		if cached != nil {
			row = cached[i]
		}
		ev, ok := row.h0At(ver)
		if !ok {
			h0 := stats.H0Accumulator{K: qp.SigmoidK}
			if order == nil {
				for j, v := range qp.Rows[i] {
					h0.Add(v, counts[j])
				}
			} else {
				for _, j := range order {
					h0.Add(qp.Rows[i][j], counts[j])
				}
			}
			ev = h0.Evidence(0)
			if row != nil {
				row.h0.Store(&rowH0{ver, ev})
			}
		}
		ev.Weight = w
		scorers[i] = ev.Scorer()
	}
	// The two GES sums of stats.GES, term for term in strand order, with
	// each term taken from the strand's Scorer.
	scored := make([]TargetScore, len(qp.Targets))
	rank := make([]int32, len(qp.Targets))
	for ti, ps := range qp.Targets {
		slog, esh := 0.0, 0.0
		for i, v := range ps.MaxVCP {
			s, e := scorers[i].Scores(v)
			slog += s
			esh += e
		}
		scored[ti] = TargetScore{Target: ps.Target, SLOG: slog, GES: esh}
		rank[ti] = int32(ti)
	}
	// Descending GES, ties in target order: what a stable sort of the
	// results gives, from an unstable sort of their 4-byte positions.
	slices.SortFunc(rank, func(a, b int32) int {
		if c := cmp.Compare(scored[b].GES, scored[a].GES); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	rep := &Report{
		QueryName:  qp.QueryName,
		Source:     qp.Source,
		NumBlocks:  qp.NumBlocks,
		NumStrands: qp.NumStrands,
		Results:    make([]TargetScore, len(rank)),
	}
	for k, ti := range rank {
		rep.Results[k] = scored[ti]
	}
	return rep
}
