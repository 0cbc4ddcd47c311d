package experiments

import (
	"context"

	"repro/internal/asm"
	"repro/internal/core"
)

// svcpScores returns S-VCP, the §6.2 baseline, of every target of db — built
// from procs, in order — against each of the queries: scores[k][t] is
// Σ_{s_t ∈ t} max_{s_q ∈ queries[k]} VCP(s_t, s_q), how much of each target
// strand the query contains. That direction is the reverse of the one Esh
// and S-LOG read, so the engine does not compute it for a query — but it
// is the engine's own direction with the roles swapped. A database holding
// the queries, asked about target t, hands back each unique strand of t
// with its best VCP against each query's strands as PartialScore.MaxVCP:
// under the engine's rules (the MinVars filter on both sides, 1 for an
// identical canonical key, 0 outside the size window, the verifier for
// every other pair) and in t's first-seen strand order, the order the sum
// is taken in.
func (c Config) svcpScores(db *core.DB, procs, queries []*asm.Proc) ([]map[*core.Target]float64, error) {
	qdb, err := c.NewDB(queries)
	if err != nil {
		return nil, err
	}
	scores := make([]map[*core.Target]float64, len(queries))
	for k := range scores {
		scores[k] = make(map[*core.Target]float64, len(procs))
	}
	for i, t := range db.Targets() {
		qp, err := qdb.PartialQueryCtx(context.Background(), procs[i])
		if err != nil {
			return nil, err
		}
		for k, ps := range qp.Targets {
			for _, v := range ps.MaxVCP {
				scores[k][t] += v
			}
		}
	}
	return scores, nil
}
