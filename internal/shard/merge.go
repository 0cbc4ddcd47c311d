package shard

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// Partial is one shard's contribution to a scattered query: the engine's
// core.QueryPartial, plus the two things the engine does not hold — the
// fleet slot it answered as and the served snapshot's checksum. Between
// eshd and eshgw it travels as a Frame. Its slabs are the QueryPartial's:
// a decoded partial's come from the engine's pools (DecodeFrame), for
// Release to hand back once Merge has returned. It declares no JSON tags;
// only the benchmark's per-layer timing and a merge test marshal it.
type Partial struct {
	core.QueryPartial
	Shard core.ShardInfo
	// Checksum is the served snapshot's; "" if the shard loaded no file.
	Checksum string
}

// Identity is what a shard's answer says about where it came from: its
// fleet slot, the snapshot it was computed under, and
// how far live writes have moved its corpus since the split.
type Identity struct {
	ShardID    int    `json:"shard_id"`
	ShardCount int    `json:"shard_count"`
	Generation string `json:"generation"`
	// Checksum is the served snapshot's; "" if the shard loaded no file.
	Checksum string `json:"checksum,omitempty"`
	// DataGeneration (compactions) and PendingWrites (uncompacted live
	// writes) are nonzero once the corpus left the split's snapshot.
	DataGeneration uint64 `json:"data_generation,omitempty"`
	PendingWrites  int    `json:"pending_writes,omitempty"`
}

// Identity is the partial's identity, for Manifest.CheckShard.
func (p *Partial) Identity() Identity {
	return Identity{
		ShardID:        p.Shard.ID,
		ShardCount:     p.Shard.Count,
		Generation:     p.Shard.Generation,
		Checksum:       p.Checksum,
		DataGeneration: p.DataGeneration,
		PendingWrites:  p.PendingWrites,
	}
}

// FromQueryPartial wraps an engine partial answered as slot si, sharing
// its slices and taking over its slabs: release the one or the other,
// once. The caller stamps the snapshot checksum.
func FromQueryPartial(qp *core.QueryPartial, si core.ShardInfo) *Partial {
	return &Partial{QueryPartial: *qp, Shard: si}
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
		sid := p.Shard.ID
		if err := man.CheckShard(sid, p.Identity()); err != nil {
			return nil, nil, fmt.Errorf("shard: merge: %w", err)
		}
		if byShard[sid] != nil {
			return nil, nil, fmt.Errorf("shard: merge: two partials for shard %d", sid)
		}
		byShard[sid] = p
		if first == nil {
			first = p
		}
	}
	if first == nil {
		return nil, nil, fmt.Errorf("shard: merge: no shard responded")
	}

	// The merged partial keeps the first responder's query header, which
	// checkPartial holds every other responder to. One pass over the
	// responders adds their histograms per strand and lays their targets
	// out in global corpus order — the single-node pre-sort order, so the
	// stable GES sort breaks ties identically; the manifest assigns every
	// global target to exactly one shard, so indexing by it replaces a
	// sort.
	qp := first.QueryPartial
	qp.H0 = make([]*stats.H0Accumulator, len(qp.Weights))
	for i := range qp.H0 {
		qp.H0[i] = new(stats.H0Accumulator)
	}
	qp.DrawTargets(man.NumTargets, 0)
	defer qp.Release()
	var missing []int
	for s, p := range byShard {
		if p == nil {
			missing = append(missing, s)
			continue
		}
		if err := checkPartial(man, first, p); err != nil {
			return nil, nil, err
		}
		for i, h := range p.H0 {
			qp.H0[i].Merge(h)
		}
		for k, ti := range man.Shards[s].Targets {
			qp.Targets[ti] = p.Targets[k]
		}
	}
	// A missing shard's targets are absent; the rest keep their order.
	qp.Targets = slices.DeleteFunc(qp.Targets, func(ps core.PartialScore) bool { return ps.Target == nil })
	return qp.Finalize(), missing, nil
}

// checkPartial validates the shape of one shard's partial against the
// manifest and the fleet-wide query view (every shard must derive the
// identical query decomposition, or histograms cannot be merged by index).
func checkPartial(man *Manifest, first, p *Partial) error {
	s := p.Shard.ID
	if p.QueryName != first.QueryName || p.NumStrands != first.NumStrands || len(p.Weights) != len(first.Weights) {
		return fmt.Errorf("shard: merge: shard %d answered a different query (%q, %d strands) than shard %d (%q, %d strands)",
			s, p.QueryName, len(p.Weights), first.Shard.ID, first.QueryName, len(first.Weights))
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
