package core

import (
	"context"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// This file exports to package core_test what an oracle outside the
// package needs to recompute a query row: the rows a query computes, and
// which strand each row and each column stands for.

// Strands returns the plan's unique query strands: strand i is row i of
// the plan's partial.
func (pl *QueryPlan) Strands() []*strand.Strand { return pl.strands }

// QueryRows runs a query and returns the VCP rows it computed: rows[i][j] =
// VCP(query strand i, unique strand j), read-only. A dead column holds
// whatever the row knew when its strand died.
func (db *DB) QueryRows(ctx context.Context, p *asm.Proc) ([][]float64, error) {
	pl, err := db.Plan(ctx, p)
	if err != nil {
		return nil, err
	}
	_, rows, err := db.partialQuery(ctx, pl, db.corpus.Load())
	return rows, err
}

// The crash-recovery tests (replay_test.go) replay through package index,
// which imports core, so they are in package core_test too; these are the
// parts of the write harness (write_test.go) they share.
var (
	GenProc          = genProc
	SynthOps         = synthOps
	DelOp            = delOp
	ApplyScript      = applyScript
	Survivors        = survivors
	BuildFresh       = buildFresh
	DiffReports      = diffReports
	WriteTestOptions = writeTestOptions
	WriteModes       = writeModes
	CheckSketchState = checkSketchState
)

// GCCStyle is a small single-block procedure the write tests query with;
// Unrelated is a loop over memory, whose strands have memory inputs.
const (
	GCCStyle  = gccStyle
	Unrelated = unrelated
)

// Summaries returns the sketch summary of every unique strand, in strand
// order; read-only.
func (db *DB) Summaries() []sketch.Summary { return db.corpus.Load().sums }

// ColumnStrands returns the unique target strands in column order, nil
// where a strand is dead (every target holding it tombstoned).
func (db *DB) ColumnStrands() []*vcp.Indexed {
	c := db.corpus.Load()
	out := make([]*vcp.Indexed, len(c.uniq))
	for j, u := range c.uniq {
		if c.counts[j] > 0 {
			out[j] = u
		}
	}
	return out
}
