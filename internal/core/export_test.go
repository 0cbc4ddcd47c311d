package core

import (
	"repro/internal/strand"
	"repro/internal/vcp"
)

// This file exports to package core_test what an oracle outside the
// package needs to recompute a query row: which strand each row and each
// column stands for.

// Strands returns the plan's unique query strands: strand i is row i of
// the plan's partial.
func (pl *QueryPlan) Strands() []*strand.Strand { return pl.strands }

// ColumnStrands returns the unique target strands in column order, nil
// where a strand is dead (every target holding it tombstoned).
func (db *DB) ColumnStrands() []*vcp.Prepared {
	c := db.corpus.Load()
	out := make([]*vcp.Prepared, len(c.uniq))
	for j, u := range c.uniq {
		if c.counts[j] > 0 {
			out[j] = u
		}
	}
	return out
}
