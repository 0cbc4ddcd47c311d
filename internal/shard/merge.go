package shard

import (
	"fmt"
	"slices"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/stats"
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
	// Weights and H0 are indexed by unique query strand, in the
	// decomposition order every shard derives identically from the
	// query text. H0[i] is the strand's histogram over the shard's corpus
	// (core.QueryPartial.H0), read-only.
	Weights []float64              `json:"weights"`
	H0      []*stats.H0Accumulator `json:"h0"`
	// Targets holds each target's identity and shard-exact reductions,
	// in the shard's target order. The identities may be shared with the
	// engine or with other partials (TargetTable): read-only.
	Targets []core.PartialScore `json:"targets"`

	// targets and maxVCP are the pooled slabs DecodeFrame cut Targets and
	// their MaxVCPs from, which Release hands back; nil for a partial
	// built any other way.
	targets []core.PartialScore
	maxVCP  []float64
}

// Release hands the per-target slabs DecodeFrame drew for the partial back
// to their pools and clears Targets; the caller must be done with them.
// Merge copies what it reads, so a coordinator releases its partials once
// Merge has returned. Nothing else is pooled: the identities are the slot's
// TargetTable's. A partial that is never released leaves its slabs to the
// collector, and one not decoded by DecodeFrame has none to release.
func (p *Partial) Release() {
	partialScoreSlabs.Put(p.targets)
	floatSlabs.Put(p.maxVCP)
	p.Targets, p.targets, p.maxVCP = nil, nil, nil
}

// The fleet path's slab pools: DecodeFrame's, and Merge's laid-out target
// slab, which Merge hands back itself once Finalize has read it.
var (
	partialScoreSlabs core.SlabPool[core.PartialScore]
	floatSlabs        core.SlabPool[float64]
)

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
	// writes) are nonzero once the corpus left the split's snapshot.
	DataGeneration uint64 `json:"data_generation,omitempty"`
	PendingWrites  int    `json:"pending_writes,omitempty"`
}

// FromQueryPartial converts an engine partial to wire form, sharing its
// slices; the caller stamps the snapshot checksum.
func FromQueryPartial(qp *core.QueryPartial, si core.ShardInfo) *Partial {
	return &Partial{
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
		H0:         qp.H0,
		Targets:    qp.Targets,
	}
}

// Merge reassembles shard partials into the single-node result. Each
// query strand's H0 histogram is the sum of the responders' (a strand's
// corpus multiplicity is the sum of its shard-local ones), the per-target
// reductions pass through untouched, the targets are laid out in global
// (corpus build) order, and core.QueryPartial.Finalize then runs the
// scoring a single node runs. With every shard present the result is
// bit-identical to core.Query on the union corpus.
//
// With shards missing it is bit-identical to a single node holding only
// the responders' targets: their targets are absent from the report, and
// the histograms count only the responders' strands. The returned slice
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

	// One pass over the responders: their histograms are added per
	// strand, and their targets laid out in global corpus order — the
	// single-node pre-sort order, so the stable GES sort breaks ties
	// identically; the manifest assigns every global target to exactly
	// one shard, so indexing by it replaces a sort.
	var missing []int
	h0 := make([]*stats.H0Accumulator, len(first.Weights))
	for i := range h0 {
		h0[i] = new(stats.H0Accumulator)
	}
	laid := partialScoreSlabs.Get(man.NumTargets)
	defer partialScoreSlabs.Put(laid)
	for s, p := range byShard {
		if p == nil {
			missing = append(missing, s)
			continue
		}
		if err := checkPartial(man, first, p); err != nil {
			return nil, nil, err
		}
		for i, h := range p.H0 {
			h0[i].Merge(h)
		}
		for k, ti := range man.Shards[s].Targets {
			laid[ti] = p.Targets[k]
		}
	}
	// A missing shard's targets are absent; the rest keep their order.
	targets := slices.DeleteFunc(laid, func(ps core.PartialScore) bool { return ps.Target == nil })

	qp := &core.QueryPartial{
		QueryName:  first.QueryName,
		Source:     first.Source,
		NumBlocks:  first.NumBlocks,
		NumStrands: first.NumStrands,
		SigmoidK:   first.SigmoidK,
		Weights:    first.Weights,
		H0:         h0,
		Targets:    targets,
	}
	return qp.Finalize(), missing, nil
}

// checkPartial validates the shape of one shard's partial against the
// manifest and the fleet-wide query view (every shard must derive the
// identical query decomposition, or histograms cannot be merged by index).
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
	if len(p.H0) != len(p.Weights) {
		return fmt.Errorf("shard: merge: shard %d returned %d H0 histograms for %d query strands", s, len(p.H0), len(p.Weights))
	}
	if i := slices.Index(p.H0, nil); i >= 0 {
		return fmt.Errorf("shard: merge: shard %d returned no H0 histogram for query strand %d", s, i)
	}
	if len(p.Targets) != len(man.Shards[s].Targets) {
		return fmt.Errorf("shard: merge: shard %d returned %d targets, manifest assigns %d", s, len(p.Targets), len(man.Shards[s].Targets))
	}
	for k, ps := range p.Targets {
		if ps.Target == nil {
			return fmt.Errorf("shard: merge: shard %d target %d has no identity", s, k)
		}
		if len(ps.MaxVCP) != len(p.Weights) {
			return fmt.Errorf("shard: merge: shard %d target %d has %d max-VCP entries for %d query strands", s, k, len(ps.MaxVCP), len(p.Weights))
		}
	}
	return nil
}
