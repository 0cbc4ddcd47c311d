package shard

import (
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/stats"
)

// Partial is one shard's contribution to a scattered query: the engine's
// core.QueryPartial plus the fleet slot it answered as, which the engine
// does not hold. Between eshd and eshgw it travels as a Frame. Its slabs
// are the QueryPartial's: a decoded partial's come from the engine's pools
// (DecodeFrame), for Release to hand back once Merge has returned. It
// declares no JSON tags; only the benchmark's per-layer timing and a merge
// test marshal it.
type Partial struct {
	core.QueryPartial
	Shard core.ShardInfo
}

// FromQueryPartial wraps an engine partial answered as slot si, sharing
// its slices and taking over its slabs: release the one or the other,
// once.
func FromQueryPartial(qp *core.QueryPartial, si core.ShardInfo) *Partial {
	return &Partial{QueryPartial: *qp, Shard: si}
}

// Merge reassembles shard partials into the single-node result. Each
// query strand's H0 histogram is the sum of the responders' (a strand's
// corpus multiplicity is the sum of its shard-local ones), the per-target
// reductions pass through untouched, and core.QueryPartial.Finalize then
// runs the scoring a single node runs. Targets are laid out in the
// fleet's canonical order: the split's by their split positions, holes
// (tombstoned or missing targets) dropped, then each shard's live adds,
// shard 0's first. A single node that indexed the fleet's live targets in
// that order — for an unwritten fleet, the corpus — answers bit for bit
// the same, its stable GES sort breaking ties alike.
//
// With shards missing it is bit-identical to a single node holding only
// the responders' live targets. The returned slice lists the missing
// shard IDs (nil when the fleet was complete). Merge judges only what
// needs more than one partial, or keeps its own indexing safe: a slot out
// of range or answered twice, partials that disagree on the query
// (checkPartial), or a split position out of range or already claimed
// fails the merge. Whether a partial belongs to this fleet at all
// (Manifest.CheckShard) is the caller's to judge, per partial, before it
// gets here: the gateway refuses a foreign leg as a failed attempt.
func Merge(man *Manifest, parts []*Partial) (*core.Report, []int, error) {
	byShard := make([]*Partial, len(man.Shards))
	var first *Partial
	for _, p := range parts {
		if p == nil {
			continue
		}
		sid := p.Shard.ID
		if sid < 0 || sid >= len(byShard) {
			return nil, nil, fmt.Errorf("shard: merge: shard %d: out of range [0,%d)", sid, len(byShard))
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
	var missing []int
	responded := 0 // targets, a bound on those no split placed
	top := 0       // the highest split position claimed: the layout needs no more
	for s, p := range byShard {
		if p == nil {
			missing = append(missing, s)
			continue
		}
		if err := checkPartial(first, p); err != nil {
			return nil, nil, err
		}
		responded += len(p.Targets)
		for _, ps := range p.Targets {
			top = max(top, ps.Target.SplitPos)
		}
	}

	// The merged partial keeps the first responder's query header, which
	// checkPartial holds every other responder to. One pass over the
	// responders adds their histograms per strand and lays their targets
	// out: the split's at their positions, the rest after them in
	// shard order.
	qp := first.QueryPartial
	qp.H0 = make([]*stats.H0Accumulator, len(qp.Weights))
	for i := range qp.H0 {
		qp.H0[i] = new(stats.H0Accumulator)
	}
	placed := min(top, man.NumTargets)
	qp.DrawTargets(placed+responded, 0)
	defer qp.Release()
	next := placed
	for s, p := range byShard {
		if p == nil {
			continue
		}
		for i, h := range p.H0 {
			qp.H0[i].Merge(h)
		}
		for k, ps := range p.Targets {
			pos := ps.Target.SplitPos
			switch {
			case pos == 0:
				qp.Targets[next] = ps
				next++
				continue
			case pos < 0 || pos > man.NumTargets:
				return nil, nil, fmt.Errorf("shard: merge: shard %d target %d (%s) claims split position %d, the split has %d targets",
					s, k, ps.Target.Name, pos, man.NumTargets)
			case qp.Targets[pos-1].Target != nil:
				return nil, nil, fmt.Errorf("shard: merge: shard %d target %d (%s) claims split position %d, which %s already holds",
					s, k, ps.Target.Name, pos, qp.Targets[pos-1].Target.Name)
			}
			qp.Targets[pos-1] = ps
		}
	}
	// Tombstoned and missing targets and unused slots leave holes; the
	// rest keep their order.
	qp.Targets = slices.DeleteFunc(qp.Targets, func(ps core.PartialScore) bool { return ps.Target == nil })
	return qp.Finalize(), missing, nil
}

// checkPartial validates the shape of one shard's partial against the
// fleet-wide query view (every shard must derive the identical query
// decomposition, or histograms cannot be merged by index).
func checkPartial(first, p *Partial) error {
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
