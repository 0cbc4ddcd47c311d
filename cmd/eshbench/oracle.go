package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/server"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// topN is the server's default result count; requests carry no "top".
const topN = 20

// oracle answers queries in process, through the same public calls a
// daemon makes (index.LoadFile -> DB.QueryCtx -> BuildQueryResponse),
// so a served answer can be checked byte for byte.
type oracle struct {
	db *core.DB
}

func loadOracle(h *harness, snapshot string) (*oracle, error) {
	sp := h.spans.start("oracle.load", "", 0)
	db, err := index.LoadFile(snapshot)
	sp.end()
	if err != nil {
		return nil, fmt.Errorf("oracle: %w", err)
	}
	return &oracle{db: db}, nil
}

// answer returns the compact JSON of the ranked results for p and the
// engine's span tree for the call (root "query", the name eshd uses).
func (o *oracle) answer(p *asm.Proc) ([]byte, *telemetry.SpanData, error) {
	ctx, root := telemetry.StartSpan(context.Background(), "query")
	rep, err := o.db.QueryCtx(ctx, p)
	root.End()
	if err != nil {
		return nil, nil, fmt.Errorf("oracle: %w", err)
	}
	out, err := resultsJSON(rep)
	return out, root.Snapshot(), err
}

// resultsJSON is the compact encoding of the ranked results a server
// would put in its reply for rep.
func resultsJSON(rep *core.Report) ([]byte, error) {
	return json.Marshal(server.BuildQueryResponse(rep, stats.Esh, topN).Results)
}

// served is the part of a query reply the benchmark reads.
type served struct {
	Results json.RawMessage     `json:"results"`
	Trace   *telemetry.SpanData `json:"trace"`
}

// parseServed decodes a 200 reply; a reply without results is malformed.
func parseServed(body []byte) (*served, error) {
	var s served
	if err := json.Unmarshal(body, &s); err != nil {
		return nil, err
	}
	if len(s.Results) == 0 {
		return nil, fmt.Errorf("reply has no results")
	}
	return &s, nil
}

// sameResults compares a served results array (indented, as the server
// writes it) with the oracle's compact encoding. Go encodes a float64
// as its shortest exact decimal, so byte equality is bit equality.
func sameResults(servedRaw, want []byte) bool {
	var buf bytes.Buffer
	if err := json.Compact(&buf, servedRaw); err != nil {
		return false
	}
	return bytes.Equal(buf.Bytes(), want)
}
