package core

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// corpus is one version of the indexed database: everything a reader may
// see, as one immutable value. DB.corpus points at the current one. A query
// loads it once and runs every stage, and finalize, against it; a writer
// (serialized by writeMu) builds the successor in this file and publishes
// it with one pointer store. A successor shares what it can with its
// parent, under the rules that keep a loaded value stable for as long as
// anyone holds it:
//
//   - uniq, sums, targets and live only grow by appending beyond the
//     lengths older versions hold; nothing below those lengths is written;
//   - counts and h0Order are fresh slices in every version that changes
//     them, and so is live when a tombstone flips one of its entries;
//   - a renumbering compaction shares no array indexed by strand number,
//     and moves rowEpoch.
//
// The bulk path (AddTarget) counts in place and appends to the LSH index in
// place, which is why it alone is not safe concurrently with readers.
type corpus struct {
	// WriteState is the version's position on the write path: the one
	// thing about a corpus a client is told (write replies, /v1/stats).
	WriteState

	uniq    []*vcp.Prepared // unique strands across all targets
	counts  []int           // corpus multiplicity per unique strand
	targets []*Target
	total   int // Σ counts: |T|, the H0 denominator

	// Tombstone state. live[ti] is target ti's liveness; nil means "all
	// live" (the common, tombstone-free case — a corpus that never saw a
	// remove never materializes it). h0Order, non-nil exactly when live
	// is, is the H0 iteration permutation: the surviving strands in the
	// first-seen order a from-scratch rebuild of the live targets would
	// assign, which is what keeps post-tombstone scores bit-identical to
	// that rebuild (float addition is order-sensitive, so masking dead
	// strands is not enough — see QueryPartial.finalize).
	live    []bool
	h0Order []int32
	// countsVer moves with every change of counts or h0Order: an H0
	// estimate stamped with it (vcpRow.h0) is good for as long as it stands.
	countsVer uint64

	// Sketch state: one sketch summary per unique strand (in uniq order;
	// MinHash signatures are persisted in snapshots, the rest is
	// recomputed cheaply) and the banded index over them. Stage 3 reads
	// the summaries' typed input counts on every query and the rest at
	// the heuristic tier only. Maintained unconditionally: it is cheap
	// next to verifier preparation, and snapshots persist the signatures
	// whatever tier the corpus was indexed under.
	sums      []sketch.Summary
	sketchIdx *sketch.Index
	// probe is the retrieval table's handle: non-nil exactly under
	// probeOn().
	probe *probeTable

	// rowEpoch names the strand numbering uniq is in: the row cache holds
	// rows of one epoch, and a query compares its corpus's with the
	// cache's at lookup and at publication (rowcache.go).
	rowEpoch uint64
}

// WriteState is where one version of the corpus stands on the write path.
type WriteState struct {
	Generation    uint64 // compaction generation (zero until the first)
	WALSeq        uint64 // sequence of the last journal record applied (zero when none)
	PendingWrites int    // live writes applied since the last compaction (or load)
	Tombstones    int    // tombstoned targets not yet compacted away
}

// probeTable is the immutable probe table of a corpus lineage, built at
// most once: over base, the summaries of the version the handle was made
// for. Successors share the handle for as long as they only append to those
// summaries, so whichever of them builds the table, it covers a prefix of
// every sharer's sums — the delta overlay (planProbe) covers the rest — and
// a version that renumbers gets a fresh handle. Held by pointer: versions
// are copied, a sync.Once must not be.
type probeTable struct {
	base []sketch.Summary
	once sync.Once
	rx   atomic.Pointer[sketch.RetrievalIndex] // nil until built
}

// newProbeTable returns a handle over sums, its table built now or left to
// the first probe: nil unless the database probes, the one condition under
// which a table is ever built.
func (db *DB) newProbeTable(sums []sketch.Summary, build bool) *probeTable {
	if !db.probeOn() {
		return nil
	}
	pt := &probeTable{base: sums}
	if build {
		db.table(pt)
	}
	return pt
}

// table returns pt's table, building it if nobody has. Every table comes
// from here, so esh_retrieval_table_build_seconds counts them all.
func (db *DB) table(pt *probeTable) *sketch.RetrievalIndex {
	pt.once.Do(func() {
		start := time.Now()
		pt.rx.Store(sketch.BuildRetrieval(pt.base, db.sketchCfg))
		db.hRetrBuild.Observe(time.Since(start).Seconds())
	})
	return pt.rx.Load()
}

// builtTable returns c's probe table if it has one and somebody built it.
func (c *corpus) builtTable() *sketch.RetrievalIndex {
	if c.probe == nil {
		return nil
	}
	return c.probe.rx.Load()
}

// newIndex builds the banded LSH index over sums, in strand order.
func (db *DB) newIndex(sums []sketch.Summary) *sketch.Index {
	idx := sketch.NewIndex(db.sketchCfg)
	for _, sum := range sums {
		idx.Add(sum)
	}
	return idx
}

// novel is a strand an add brings that no indexed target holds yet.
type novel struct {
	prep *vcp.Prepared
	sum  sketch.Summary
}

// resolve runs everything about an add that can fail — decompose, then
// prepare and summarize the strands no target holds yet — and returns the
// target, its strand list tallied in c's numbering extended by news
// (news[k] will be strand len(c.uniq)+k). The corpus is untouched. Callers
// hold writeMu, which is what keeps byKey in step with c.
func (db *DB) resolve(c *corpus, p *asm.Proc) (*Target, []novel, error) {
	kept, nBlocks, err := decompose(p, db.opts)
	if err != nil {
		return nil, nil, fmt.Errorf("core: add %s: %w", p.Name, err)
	}
	t := &Target{
		Name:       p.Name,
		Source:     p.Source,
		NumBlocks:  nBlocks,
		NumStrands: len(kept),
	}
	var news []novel
	newByKey := map[string]int{} // novel canonical key -> the index it will get
	pos := map[int]int{}         // unique-strand index -> position in t.strandIdx
	for _, s := range kept {
		key := s.CanonicalKey()
		idx, ok := db.byKey[key]
		if !ok {
			idx, ok = newByKey[key]
		}
		if !ok {
			prep := db.prepare(s)
			if prep.Err() != nil {
				return nil, nil, fmt.Errorf("core: add %s: prepare strand: %w", p.Name, prep.Err())
			}
			skStart := time.Now()
			sum := sketch.Summarize(s, db.sketchCfg)
			db.hSketchBuild.Observe(time.Since(skStart).Seconds())
			idx = len(c.uniq) + len(news)
			newByKey[key] = idx
			news = append(news, novel{prep, sum})
		}
		if k, dup := pos[idx]; dup {
			t.strandMult[k]++
		} else {
			pos[idx] = len(t.strandIdx)
			t.strandIdx = append(t.strandIdx, idx)
			t.strandMult = append(t.strandMult, 1)
		}
	}
	return t, news, nil
}

// grown returns c's successor holding t and the novel strands resolve found
// for it. The live path leaves c as its readers hold it: counts is cloned,
// and novel strands force a fresh LSH index (sketch.Index is not safe to
// mutate under concurrent Candidates readers) and, once a built probe table
// has fallen retrMaxDelta strands behind, a fresh table built here rather
// than a per-query overlay growing without bound. The bulk path counts and
// indexes in place, and leaves a table over more strands to the next
// probing query.
func (db *DB) grown(c *corpus, t *Target, news []novel, bulk bool) *corpus {
	next := *c
	if bulk {
		next.counts = append(c.counts, make([]int, len(news))...)
	} else {
		next.counts = make([]int, len(c.counts)+len(news))
		copy(next.counts, c.counts)
	}
	for _, nv := range news {
		next.uniq = append(next.uniq, nv.prep)
		next.sums = append(next.sums, nv.sum)
		if bulk {
			c.sketchIdx.Add(nv.sum)
		}
	}
	if len(news) > 0 {
		if !bulk {
			next.sketchIdx = db.newIndex(next.sums)
		}
		// Sharing c's handle is always sound — the new strands are past
		// its table's length, so the overlay covers them.
		switch rx := c.builtTable(); {
		case bulk || rx == nil:
			next.probe = db.newProbeTable(next.sums, false)
		case rx.Stale(len(next.sums), db.retrMaxDelta):
			next.probe = db.newProbeTable(next.sums, true)
		}
	}
	for k, j := range t.strandIdx {
		next.counts[j] += t.strandMult[k]
		next.total += t.strandMult[k]
	}
	next.countsVer++
	next.targets = append(c.targets, t)
	if c.live != nil {
		next.live = append(c.live, true)
		next.h0Order = next.order()
	}
	return &next
}

// publishAdd registers the strands an add brought and makes next the
// current corpus. Infallible; callers hold writeMu.
func (db *DB) publishAdd(next *corpus, news []novel) {
	for k, nv := range news {
		db.byKey[nv.prep.Key()] = len(next.uniq) - len(news) + k
		pre, tot := nv.prep.InstrCounts()
		db.mPrefixInstrs.Add(uint64(pre))
		db.mKernelInstrs.Add(uint64(tot))
	}
	db.corpus.Store(next)
}

// AddTarget indexes one target procedure: the bulk path, for building a
// corpus before it is served. It serializes with the live write path but
// updates arrays its readers hold, so no query may run beside it.
func (db *DB) AddTarget(p *asm.Proc) error {
	db.writeMu.Lock()
	defer db.writeMu.Unlock()
	c := db.corpus.Load()
	t, news, err := db.resolve(c, p)
	if err != nil {
		return err
	}
	db.publishAdd(db.grown(c, t, news, true), news)
	return nil
}

// without returns c's successor with the targets at hits tombstoned.
func (c *corpus) without(hits []int) *corpus {
	next := *c
	next.live = make([]bool, len(c.targets))
	if c.live == nil {
		for i := range next.live {
			next.live[i] = true
		}
	} else {
		copy(next.live, c.live)
	}
	next.counts = slices.Clone(c.counts)
	for _, ti := range hits {
		next.live[ti] = false
		t := c.targets[ti]
		for k, j := range t.strandIdx {
			next.counts[j] -= t.strandMult[k]
			next.total -= t.strandMult[k]
		}
	}
	next.countsVer++
	next.Tombstones += len(hits)
	next.h0Order = next.order()
	return &next
}

// order derives the H0 accumulation permutation for c's tombstone state:
// the surviving strands in the first-seen order a from-scratch rebuild of
// the live targets (in add order) would assign them. Within a target,
// strandIdx is already first-occurrence order, so walking live targets in
// order and taking each strand's first appearance reproduces the rebuild's
// AddTarget order exactly. c.live must not be nil (without tombstones index
// order is already the rebuild order).
func (c *corpus) order() []int32 {
	order := make([]int32, 0, len(c.uniq))
	seen := make([]bool, len(c.uniq))
	for ti, t := range c.targets {
		if !c.live[ti] {
			continue
		}
		for _, j := range t.strandIdx {
			if !seen[j] {
				seen[j] = true
				order = append(order, int32(j))
			}
		}
	}
	return order
}

// compacted returns the rebuild-equivalent form of a possibly-dirty corpus:
// dead targets dropped, dead strands dropped, surviving strands renumbered
// into the first-seen order a from-scratch rebuild would use — which
// h0Order already is. newIdx maps each old strand number to its new one (-1
// for a dropped strand); it is nil when there were no tombstones, nothing
// moved and the arrays alias c's own. A renumbered corpus comes back in the
// next row epoch and without its LSH index and probe table, which were
// over the old numbers: Compact builds them, Export has no use for them.
func (c *corpus) compacted() (next *corpus, newIdx []int) {
	next = new(corpus)
	*next = *c
	if c.live == nil {
		return next, nil
	}
	newIdx = make([]int, len(c.uniq))
	for i := range newIdx {
		newIdx[i] = -1
	}
	n := len(c.h0Order)
	next.uniq = make([]*vcp.Prepared, n)
	next.counts = make([]int, n)
	next.sums = make([]sketch.Summary, n)
	next.total = 0
	for k, j := range c.h0Order {
		newIdx[j] = k
		next.uniq[k] = c.uniq[j]
		next.counts[k] = c.counts[j]
		next.sums[k] = c.sums[j]
		next.total += c.counts[j]
	}
	next.targets = make([]*Target, 0, len(c.targets)-c.Tombstones)
	for ti, t := range c.targets {
		if !c.live[ti] {
			continue
		}
		nt := &Target{
			Name:       t.Name,
			Source:     t.Source,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
			strandIdx:  make([]int, len(t.strandIdx)),
			strandMult: append([]int(nil), t.strandMult...),
		}
		for k, j := range t.strandIdx {
			nt.strandIdx[k] = newIdx[j]
		}
		next.targets = append(next.targets, nt)
	}
	next.live, next.h0Order, next.Tombstones = nil, nil, 0
	next.sketchIdx, next.probe = nil, nil
	next.rowEpoch++
	return next, newIdx
}

// Export is the serializable state of an indexed DB: everything needed
// to rebuild a database that answers queries identically, without
// re-running the disassemble→lift→strand pipeline over the corpus.
// Verifier preparations (compiled programs, fingerprints) are derived
// deterministically from the strands at import time, so they are not
// part of the exported state.
type Export struct {
	Opts Options
	// Shard identifies this snapshot's slice of a split corpus (zero
	// value: unsharded). Counts and multiplicities below are local to
	// the shard; the manifest carries the union view.
	Shard ShardInfo
	// Strands holds the unique strands in index order with their corpus
	// multiplicity; index order is significant (targets reference
	// strands by position, and reports must be reproducible).
	Strands []ExportStrand
	Targets []ExportTarget
	// Generation is the compaction generation of the exported corpus
	// and WALSeq its journal high-water mark: a snapshot at (g, s)
	// already contains every write with sequence <= s, so startup replay
	// skips them.
	Generation uint64
	WALSeq     uint64
}

// ExportStrand is one unique strand, its corpus multiplicity, and its
// MinHash signature (may be nil on import — a snapshot whose sketch
// section was written empty — in which case it is recomputed).
type ExportStrand struct {
	S     *strand.Strand
	Count int
	Sig   sketch.Signature
}

// ExportTarget mirrors Target with the strand index list exported.
type ExportTarget struct {
	Name       string
	Source     asm.Provenance
	NumBlocks  int
	NumStrands int
	StrandIdx  []int
	// StrandMult[k] is the target's multiplicity of StrandIdx[k].
	StrandMult []int
}

// Export captures the database state for serialization. The returned
// value aliases the DB's strands and targets; treat it as read-only.
// With tombstones or uncompacted live writes present it exports the
// remapped live view — the corpus a from-scratch rebuild of the
// surviving targets would hold — because Export's invariants (counts
// == per-target multiplicity sums, every strand owned) only hold for
// that view. It reads one corpus version: no lock, no writer stalled.
func (db *DB) Export() *Export {
	c, _ := db.corpus.Load().compacted()
	return db.export(c)
}

// export serializes a compacted corpus.
func (db *DB) export(c *corpus) *Export {
	ex := &Export{
		Opts: db.opts, Shard: db.shard,
		Generation: c.Generation, WALSeq: c.WALSeq,
	}
	ex.Strands = make([]ExportStrand, len(c.uniq))
	for i, p := range c.uniq {
		ex.Strands[i] = ExportStrand{S: p.S, Count: c.counts[i], Sig: c.sums[i].Sig}
	}
	ex.Targets = make([]ExportTarget, len(c.targets))
	for i, t := range c.targets {
		ex.Targets[i] = ExportTarget{
			Name:       t.Name,
			Source:     t.Source,
			NumBlocks:  t.NumBlocks,
			NumStrands: t.NumStrands,
			StrandIdx:  t.strandIdx,
			StrandMult: t.strandMult,
		}
	}
	return ex
}

// FromExport rebuilds a queryable DB from exported state, re-preparing
// every strand (compilation + fingerprints are deterministic, so the
// rebuilt DB produces reports identical to the original). ex.Opts is the
// whole configuration of the new DB — a loader that overrides a
// snapshot's options edits it before calling — and preparation runs in
// parallel under Opts.Workers.
func FromExport(ex *Export) (*DB, error) {
	db, err := newDB(ex.Opts)
	if err != nil {
		return nil, fmt.Errorf("core: import: %w", err)
	}
	if ex.Shard.Sharded() && (ex.Shard.ID < 0 || ex.Shard.ID >= ex.Shard.Count) {
		return nil, fmt.Errorf("core: import: shard id %d out of range [0,%d)", ex.Shard.ID, ex.Shard.Count)
	}
	db.shard = ex.Shard
	c := &corpus{
		WriteState: WriteState{Generation: ex.Generation, WALSeq: ex.WALSeq},
		uniq:       make([]*vcp.Prepared, len(ex.Strands)),
		counts:     make([]int, len(ex.Strands)),
	}

	var wg sync.WaitGroup
	sem := make(chan struct{}, db.opts.Workers)
	for i, es := range ex.Strands {
		wg.Add(1)
		go func(i int, s *strand.Strand) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			c.uniq[i] = db.prepare(s)
		}(i, es.S)
	}
	wg.Wait()

	for i, es := range ex.Strands {
		prep := c.uniq[i]
		if err := prep.Err(); err != nil {
			return nil, fmt.Errorf("core: import strand %d: %w", i, err)
		}
		pre, tot := prep.InstrCounts()
		db.mPrefixInstrs.Add(uint64(pre))
		db.mKernelInstrs.Add(uint64(tot))
		if es.Count < 1 {
			return nil, fmt.Errorf("core: import strand %d: multiplicity %d", i, es.Count)
		}
		key := prep.Key()
		if prev, dup := db.byKey[key]; dup {
			return nil, fmt.Errorf("core: import strand %d: duplicate canonical key with strand %d", i, prev)
		}
		db.byKey[key] = i
		c.counts[i] = es.Count
		c.total += es.Count
	}

	// Adopt persisted sketch signatures when they match the configured
	// geometry; recompute otherwise (deterministic, so equivalent).
	start := time.Now()
	c.sums = db.adoptSketches(c.uniq, ex.Strands)
	c.sketchIdx = db.newIndex(c.sums)
	db.hSketchBuild.Observe(time.Since(start).Seconds())

	// The probe table is derived state, never part of an export: a
	// probing database builds it here, so a served snapshot's first query
	// does not pay for it; any other builds none.
	c.probe = db.newProbeTable(c.sums, true)

	// Per-target multiplicities must reproduce the per-strand counts
	// exactly — the invariant a shard split relies on.
	multSum := make([]int, len(c.uniq))
	for ti, et := range ex.Targets {
		t := &Target{
			Name:       et.Name,
			Source:     et.Source,
			NumBlocks:  et.NumBlocks,
			NumStrands: et.NumStrands,
		}
		if len(et.StrandMult) != len(et.StrandIdx) {
			return nil, fmt.Errorf("core: import target %d (%s): %d multiplicities for %d strand indices",
				ti, et.Name, len(et.StrandMult), len(et.StrandIdx))
		}
		seen := make(map[int]bool, len(et.StrandIdx))
		for k, idx := range et.StrandIdx {
			if idx < 0 || idx >= len(c.uniq) {
				return nil, fmt.Errorf("core: import target %d (%s): strand index %d out of range [0,%d)",
					ti, et.Name, idx, len(c.uniq))
			}
			if seen[idx] {
				return nil, fmt.Errorf("core: import target %d (%s): duplicate strand index %d", ti, et.Name, idx)
			}
			seen[idx] = true
			m := et.StrandMult[k]
			if m < 1 {
				return nil, fmt.Errorf("core: import target %d (%s): multiplicity %d for strand %d", ti, et.Name, m, idx)
			}
			t.strandMult = append(t.strandMult, m)
			multSum[idx] += m
		}
		t.strandIdx = append(t.strandIdx, et.StrandIdx...)
		c.targets = append(c.targets, t)
	}
	for j, want := range c.counts {
		if multSum[j] != want {
			return nil, fmt.Errorf("core: import: strand %d multiplicities sum to %d, count is %d", j, multSum[j], want)
		}
	}
	db.corpus.Store(c)
	return db, nil
}

// adoptSketches builds the summary table over every unique strand of a
// snapshot being restored. Persisted signatures that match the configured
// geometry are adopted as-is; otherwise (geometry overridden at load)
// signatures are re-MinHashed. The rest of each summary (feature-set size,
// typed input counts) is always recomputed — those walks are cheap next to
// MinHashing, so they are not persisted.
func (db *DB) adoptSketches(uniq []*vcp.Prepared, strands []ExportStrand) []sketch.Summary {
	sums := make([]sketch.Summary, len(uniq))
	var wg sync.WaitGroup
	sem := make(chan struct{}, db.opts.Workers)
	for i, p := range uniq {
		wg.Add(1)
		go func(i int, s *strand.Strand) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			// AdoptSignature re-MinHashes on length mismatch.
			sums[i] = sketch.AdoptSignature(s, strands[i].Sig, db.sketchCfg)
		}(i, p.S)
	}
	wg.Wait()
	return sums
}
