package core

import (
	"cmp"
	"slices"

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
	Target *Target
	// MaxVCP[i] is the best VCP(query strand i, t) over the target's
	// strands — the Pr(s_q|t) input of the LES.
	MaxVCP []float64
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
