package core

import (
	"fmt"
	"slices"
	"sync"
	"time"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// corpus is one version of the indexed database: everything a reader may
// see, as one immutable value. DB.corpus points at the current one. A query
// loads it once and runs every stage against it; a writer
// (serialized by writeMu) builds the successor in this file and publishes
// it with one pointer store. A successor shares what it can with its
// parent, under the rules that keep a loaded value stable for as long as
// anyone holds it:
//
//   - uniq, sums, targets and live only grow by appending beyond the
//     lengths older versions hold; nothing below those lengths is written;
//   - counts is a fresh slice in every version that changes it, and so is
//     live when a tombstone flips one of its entries;
//   - a renumbering compaction shares no array indexed by strand number,
//     and moves rowEpoch.
//
// The bulk paths (AddTarget, and startup replay: ReplayAdd, ReplayRemove)
// count and tombstone in place and append to the LSH index in place, which
// is why they are not safe concurrently with readers.
type corpus struct {
	// WriteState is the version's position on the write path: the one
	// thing about a corpus a client is told (write replies, /v1/stats).
	WriteState

	uniq    []*vcp.Indexed // unique strands across all targets
	counts  []int          // corpus multiplicity per unique strand
	targets []*Target
	total   int // Σ counts: |T|, the H0 denominator

	// Tombstone state. live[ti] is target ti's liveness; nil means "all
	// live" (the common, tombstone-free case — a corpus that never saw a
	// remove never materializes it). A strand every owner of which is
	// tombstoned is dead: its count is 0, so no H0 histogram counts it.
	live []bool
	// countsVer moves with every change of counts: an H0 histogram
	// stamped with it (vcpRow.h0) is good for as long as it stands.
	countsVer uint64

	// Sketch state: one sketch summary per unique strand (in uniq order;
	// MinHash signatures are persisted in snapshots, the typed input
	// counts recomputed cheaply) and the banded index over them. Stage 3
	// reads the typed input counts on every query; no query reads the
	// signatures or the index (see grown).
	sums      []sketch.Summary
	sketchIdx *sketch.Index

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

// sketchCfg is the one signature banding (24×3): no flag or snapshot
// setting changes it.
var sketchCfg = sketch.Config{}.Normalized()

// newIndex builds the banded LSH index over sums, in strand order.
func (db *DB) newIndex(sums []sketch.Summary) *sketch.Index {
	idx := sketch.NewIndex(sketchCfg)
	for _, sum := range sums {
		idx.Add(sum)
	}
	return idx
}

// novel is a strand an add brings that no indexed target holds yet.
type novel struct {
	prep *vcp.Indexed
	sum  sketch.Summary
}

// resolve runs everything about an add that can fail — decompose, then
// index and summarize the strands no target holds yet — and returns the
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
			prep := vcp.Index(s, db.opts.VCP)
			if prep.Err() != nil {
				return nil, nil, fmt.Errorf("core: add %s: prepare strand: %w", p.Name, prep.Err())
			}
			skStart := time.Now()
			sum := sketch.Summarize(s, sketchCfg)
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
// and novel strands force a fresh LSH index (a published corpus, its index
// included, is never mutated). The bulk path counts and indexes in place,
// so its cost follows the add, not the corpus.
//
// No query reads the signatures resolve computes or the band maps built
// here; they stay on purpose. Dropping them makes every live add cheaper,
// and the benchmark's ingest_mixed workload, whose write script runs a
// fixed number of writes, then crowds its readers' window with adds
// (ROADMAP A(2)). ROADMAP N(2) removes this work, the snapshot's sketch
// section with it, once that window is time-boxed.
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
	if len(news) > 0 && !bulk {
		next.sketchIdx = db.newIndex(next.sums)
	}
	for k, j := range t.strandIdx {
		next.counts[j] += t.strandMult[k]
		next.total += t.strandMult[k]
	}
	next.countsVer++
	next.targets = append(c.targets, t)
	if c.live != nil {
		next.live = append(c.live, true)
	}
	return &next
}

// publishAdd registers the strands an add brought and makes next the
// current corpus. Infallible; callers hold writeMu.
func (db *DB) publishAdd(next *corpus, news []novel) {
	for k, nv := range news {
		db.byKey[nv.prep.Key()] = len(next.uniq) - len(news) + k
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

// without returns c's successor with the targets at hits tombstoned. The
// live path clones live and counts, as grown clones counts; the bulk path
// flips and decrements them in place (live is materialized once, by the
// first tombstone).
func (c *corpus) without(hits []int, bulk bool) *corpus {
	next := *c
	switch {
	case c.live == nil:
		next.live = make([]bool, len(c.targets))
		for i := range next.live {
			next.live[i] = true
		}
	case !bulk:
		next.live = slices.Clone(c.live)
	}
	if !bulk {
		next.counts = slices.Clone(c.counts)
	}
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
	return &next
}

// compacted returns the rebuild-equivalent form of a possibly-dirty corpus:
// dead targets dropped, dead strands dropped, surviving strands renumbered
// into the first-seen order a from-scratch rebuild of the live targets (in
// add order) would assign — within a target, strandIdx is already
// first-occurrence order. newIdx maps each old strand number to its new one
// (-1 for a dropped strand); it is nil when there were no tombstones,
// nothing moved and the arrays alias c's own. A renumbered corpus comes
// back in the next row epoch and without its LSH index, which was over the
// old numbers: Compact builds it, Export has no use for it.
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
	next.uniq, next.counts, next.sums, next.total = nil, nil, nil, 0
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
			SplitPos:   t.SplitPos,
			strandIdx:  make([]int, len(t.strandIdx)),
			strandMult: append([]int(nil), t.strandMult...),
		}
		for k, j := range t.strandIdx {
			if newIdx[j] < 0 {
				newIdx[j] = len(next.uniq)
				next.uniq = append(next.uniq, c.uniq[j])
				next.counts = append(next.counts, c.counts[j])
				next.sums = append(next.sums, c.sums[j])
				next.total += c.counts[j]
			}
			nt.strandIdx[k] = newIdx[j]
		}
		next.targets = append(next.targets, nt)
	}
	next.live, next.Tombstones = nil, 0
	next.sketchIdx = nil
	next.rowEpoch++
	return next, newIdx
}

// Export is the serializable state of an indexed DB: everything needed
// to rebuild a database that answers queries identically, without
// re-running the disassemble→lift→strand pipeline over the corpus.
// Each strand's fingerprints are derived deterministically from it at
// import time (vcp.Index), so they are not part of the exported state.
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
	SplitPos   int // Target.SplitPos
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
			SplitPos:   t.SplitPos,
			StrandIdx:  t.strandIdx,
			StrandMult: t.strandMult,
		}
	}
	return ex
}

// FromExport rebuilds a queryable DB from exported state, re-indexing
// every strand (vcp.Index compiles it, keeps its fingerprints and drops
// the program; both are deterministic, so the rebuilt DB produces reports
// identical to the original). ex.Opts is the whole configuration of the
// new DB — a loader that overrides a snapshot's options edits it before
// calling — and indexing runs in parallel under Opts.Workers.
func FromExport(ex *Export) (*DB, error) {
	db := NewDB(ex.Opts)
	if ex.Shard.Sharded() && (ex.Shard.ID < 0 || ex.Shard.ID >= ex.Shard.Count) {
		return nil, fmt.Errorf("core: import: shard id %d out of range [0,%d)", ex.Shard.ID, ex.Shard.Count)
	}
	db.shard = ex.Shard
	c := &corpus{
		WriteState: WriteState{Generation: ex.Generation, WALSeq: ex.WALSeq},
		uniq:       make([]*vcp.Indexed, len(ex.Strands)),
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
			c.uniq[i] = vcp.Index(s, db.opts.VCP)
		}(i, es.S)
	}
	wg.Wait()

	for i, es := range ex.Strands {
		prep := c.uniq[i]
		if err := prep.Err(); err != nil {
			return nil, fmt.Errorf("core: import strand %d: %w", i, err)
		}
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

	// Adopt persisted sketch signatures when they have the signature's
	// length; recompute otherwise (deterministic, so equivalent).
	start := time.Now()
	c.sums = db.adoptSketches(c.uniq, ex.Strands)
	c.sketchIdx = db.newIndex(c.sums)
	db.hSketchBuild.Observe(time.Since(start).Seconds())

	// Per-target multiplicities must reproduce the per-strand counts
	// exactly — the invariant a shard split relies on.
	multSum := make([]int, len(c.uniq))
	for ti, et := range ex.Targets {
		t := &Target{
			Name:       et.Name,
			Source:     et.Source,
			NumBlocks:  et.NumBlocks,
			NumStrands: et.NumStrands,
			SplitPos:   et.SplitPos,
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
// snapshot being restored. Persisted signatures of the signature's length
// are adopted as-is — a signature does not depend on how it is banded —
// with the typed input counts recomputed (a walk over the inputs); any
// other strand is re-MinHashed from its feature set.
func (db *DB) adoptSketches(uniq []*vcp.Indexed, strands []ExportStrand) []sketch.Summary {
	sums := make([]sketch.Summary, len(uniq))
	var wg sync.WaitGroup
	sem := make(chan struct{}, db.opts.Workers)
	for i, p := range uniq {
		if sig := strands[i].Sig; len(sig) == sketchCfg.Len() {
			sums[i] = sketch.AdoptSignature(p.S, sig, sketchCfg)
			continue
		}
		wg.Add(1)
		go func(i int, s *strand.Strand) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			sums[i] = sketch.Summarize(s, sketchCfg)
		}(i, p.S)
	}
	wg.Wait()
	return sums
}
