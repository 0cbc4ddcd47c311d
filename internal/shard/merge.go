package shard

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/core"
)

// Partial is one shard's contribution to a scattered query: the
// flattening of core.QueryPartial plus the identity the coordinator
// judges by Manifest.CheckShard. Between eshd and eshgw it travels as a
// Frame. The JSON tags serve tools that store or inspect partials;
// float64 round-trips exactly through Go's JSON too (shortest-
// representation encoding), though only for finite values.
type Partial struct {
	Identity

	QueryName  string         `json:"query_name"`
	Source     asm.Provenance `json:"source"`
	NumBlocks  int            `json:"num_blocks"`
	NumStrands int            `json:"num_strands"`
	// Weights and Rows are indexed by unique query strand, in the
	// decomposition order every shard derives identically from the
	// query text; Rows' second index is the shard-local strand order
	// the manifest's Strands map translates to global.
	Weights []float64       `json:"weights"`
	Rows    [][]float64     `json:"rows"`
	Targets []TargetPartial `json:"targets"`
}

// Identity is what a shard's answer says about where it came from: its
// fleet slot, the snapshot and engine settings it was computed under, and
// how far live writes have moved its corpus since the split.
type Identity struct {
	ShardID    int    `json:"shard_id"`
	ShardCount int    `json:"shard_count"`
	Generation string `json:"generation"`
	// Checksum is the served snapshot's; "" if the shard loaded no file.
	Checksum       string  `json:"checksum,omitempty"`
	SigmoidK       float64 `json:"sigmoid_k"`
	MinContainment float64 `json:"min_containment"`
	// DataGeneration (compactions) and PendingWrites (uncompacted live
	// writes) are nonzero once the corpus left the manifest's counts.
	DataGeneration uint64 `json:"data_generation,omitempty"`
	PendingWrites  int    `json:"pending_writes,omitempty"`
}

// TargetPartial is one target's shard-exact reductions in wire form.
type TargetPartial struct {
	Name       string         `json:"name"`
	Source     asm.Provenance `json:"source"`
	NumBlocks  int            `json:"num_blocks"`
	NumStrands int            `json:"num_strands"`
	MaxVCP     []float64      `json:"max_vcp"`
}

// FromQueryPartial converts an engine partial to wire form; the caller
// stamps the snapshot checksum.
func FromQueryPartial(qp *core.QueryPartial, si core.ShardInfo) *Partial {
	p := &Partial{
		Identity: Identity{
			ShardID:        si.ID,
			ShardCount:     si.Count,
			Generation:     si.Generation,
			SigmoidK:       qp.SigmoidK,
			MinContainment: qp.MinContainment,
			DataGeneration: qp.DataGeneration,
			PendingWrites:  qp.PendingWrites,
		},
		QueryName:  qp.QueryName,
		Source:     qp.Source,
		NumBlocks:  qp.NumBlocks,
		NumStrands: qp.NumStrands,
		Weights:    qp.Weights,
		Rows:       qp.Rows,
		Targets:    make([]TargetPartial, len(qp.Targets)),
	}
	for i, ps := range qp.Targets {
		p.Targets[i] = TargetPartial{
			Name:       ps.Target.Name,
			Source:     ps.Target.Source,
			NumBlocks:  ps.Target.NumBlocks,
			NumStrands: ps.Target.NumStrands,
			MaxVCP:     ps.MaxVCP,
		}
	}
	return p
}

// Merge reassembles shard partials into the single-node result. With
// every shard present the output is bit-identical to core.Query on the
// union corpus: the global VCP rows are rebuilt in global strand order
// (each entry computed on some shard, per-pair deterministic), the
// per-target reduction passes through untouched, the targets are laid
// out in global (corpus build) order, and core.QueryPartial.Finalize
// then runs the same H0/GES float sequence and the same stable sort a
// single node runs.
//
// Missing shards degrade gracefully: their targets are absent from the
// report, and strands covered only by missing shards are excluded from
// the H0 estimate by zeroing their counts (an H0Accumulator.Add with
// multiplicity 0 is a no-op), so the surviving targets' scores are the
// best estimate available from the reachable corpus. The returned slice
// lists the missing shard IDs (nil when the fleet was complete). A
// partial that fails Manifest.CheckShard fails the merge.
func Merge(man *Manifest, parts []*Partial) (*core.Report, []int, error) {
	byShard := make([]*Partial, len(man.Shards))
	var first *Partial
	for _, p := range parts {
		if p == nil {
			continue
		}
		if err := man.CheckShard(p.ShardID, p.Identity); err != nil {
			return nil, nil, fmt.Errorf("shard: merge: %w", err)
		}
		if byShard[p.ShardID] != nil {
			return nil, nil, fmt.Errorf("shard: merge: two partials for shard %d", p.ShardID)
		}
		byShard[p.ShardID] = p
		if first == nil {
			first = p
		}
	}
	if first == nil {
		return nil, nil, fmt.Errorf("shard: merge: no shard responded")
	}

	var missing []int
	for s, p := range byShard {
		if p == nil {
			missing = append(missing, s)
			continue
		}
		if err := checkPartial(man, first, p); err != nil {
			return nil, nil, err
		}
	}

	// One pass over the responders. Their rows are spliced into one dense
	// global slab: a strand shared by two shards is written twice with
	// bitwise-equal values (same deterministic pair computation), so
	// overwrite order is irrelevant. With shards missing, only responders'
	// strands keep their counts. Their targets are laid out in global
	// corpus order — the single-node pre-sort order, so the stable GES
	// sort breaks ties identically; the manifest assigns every global
	// target to exactly one shard, so indexing by it replaces a sort.
	nq, ng := len(first.Weights), len(man.Counts)
	slab := make([]float64, nq*ng)
	rows := make([][]float64, nq)
	for i := range rows {
		rows[i] = slab[i*ng : (i+1)*ng : (i+1)*ng]
	}
	counts := man.Counts
	if len(missing) > 0 {
		counts = make([]int, ng)
	}
	at := make([]*TargetPartial, man.NumTargets)
	for s, p := range byShard {
		if p == nil {
			continue
		}
		strands := man.Shards[s].Strands
		for i, dst := range rows {
			for j, v := range p.Rows[i] {
				dst[strands[j]] = v
			}
		}
		if len(missing) > 0 {
			for _, g := range strands {
				counts[g] = man.Counts[g]
			}
		}
		for k, ti := range man.Shards[s].Targets {
			at[ti] = &p.Targets[k]
		}
	}
	targets := make([]core.PartialScore, 0, man.NumTargets)
	for _, tp := range at {
		if tp == nil {
			continue // its shard is missing
		}
		targets = append(targets, core.PartialScore{
			Target: &core.Target{
				Name:       tp.Name,
				Source:     tp.Source,
				NumBlocks:  tp.NumBlocks,
				NumStrands: tp.NumStrands,
			},
			MaxVCP: tp.MaxVCP,
		})
	}

	qp := &core.QueryPartial{
		QueryName:  first.QueryName,
		Source:     first.Source,
		NumBlocks:  first.NumBlocks,
		NumStrands: first.NumStrands,
		SigmoidK:   first.SigmoidK,
		Weights:    first.Weights,
		Rows:       rows,
		Targets:    targets,
	}
	return qp.Finalize(counts), missing, nil
}

// checkPartial validates the shape of one shard's partial against the
// manifest and the fleet-wide query view (every shard must derive the
// identical query decomposition, or rows cannot be merged by index).
func checkPartial(man *Manifest, first, p *Partial) error {
	s := p.ShardID
	if p.QueryName != first.QueryName || p.NumStrands != first.NumStrands || len(p.Weights) != len(first.Weights) {
		return fmt.Errorf("shard: merge: shard %d answered a different query (%q, %d strands) than shard %d (%q, %d strands)",
			s, p.QueryName, len(p.Weights), first.ShardID, first.QueryName, len(first.Weights))
	}
	for i, w := range p.Weights {
		if w != first.Weights[i] {
			return fmt.Errorf("shard: merge: shard %d disagrees on query strand %d weight (%g vs %g)", s, i, w, first.Weights[i])
		}
	}
	if len(p.Rows) != len(p.Weights) {
		return fmt.Errorf("shard: merge: shard %d returned %d rows for %d query strands", s, len(p.Rows), len(p.Weights))
	}
	for i, row := range p.Rows {
		if len(row) != len(man.Shards[s].Strands) {
			return fmt.Errorf("shard: merge: shard %d row %d has %d entries, manifest maps %d strands", s, i, len(row), len(man.Shards[s].Strands))
		}
	}
	if len(p.Targets) != len(man.Shards[s].Targets) {
		return fmt.Errorf("shard: merge: shard %d returned %d targets, manifest assigns %d", s, len(p.Targets), len(man.Shards[s].Targets))
	}
	for k, tp := range p.Targets {
		if len(tp.MaxVCP) != len(p.Weights) {
			return fmt.Errorf("shard: merge: shard %d target %d has %d max-VCP entries for %d query strands", s, k, len(tp.MaxVCP), len(p.Weights))
		}
	}
	return nil
}
