// Retrieval index: the LSH sketches promoted from a per-pair prefilter
// to a top-level ANN structure probed at query time. Where Index walks
// every indexed summary and asks "is this pair a candidate?", the
// RetrievalIndex inverts the loop: posting lists keyed by LSH band
// bucket are built once over all target strands, and a query strand
// probes them for its candidate set without touching the rest of the
// corpus.
//
// The table belongs to the heuristic tier (MinContainment > 0) and has
// one rule: candidates are exactly the strands sharing at least one
// band bucket with the query, filtered to the injectability-live set.
// The sound candidate set — every injectability-live strand — is a
// constant fraction of the corpus that no index makes sublinear, so
// sound settings scan and never build a table. The probe's set is a
// strict subset of the scan-mode heuristic rule, which additionally
// rescues non-colliding pairs via the containment estimate and
// always-passes small-feature-set strands on either side. None of those
// escapes has a sublinear analogue — each is a per-target decision that
// needs the full scan, so keeping any of them would make the candidate
// set grow linearly with the corpus and defeat the probe. An identical
// target strand still always self-retrieves — identical signatures
// collide in every band — and the resulting recall gap is pinned by the
// differential harness.
//
// All posting lists live in flat slabs ([]int32 id runs addressed by
// offset) rather than per-bucket map slices: the table is immutable
// after build and probe touches contiguous memory. It is derived state:
// a deterministic function of the summaries, built when a probing
// database is loaded or first probed, never persisted.
package sketch

import (
	"fmt"
	"sort"
)

// retrClass counts the strands of one typed-input class: those whose
// inputs are exactly nInt bitvectors and nMem memories.
type retrClass struct {
	nInt, nMem int32
	n          int32
}

// RetrievalIndex is an immutable probe table over strand summaries.
// Build it with BuildRetrieval; Probe is safe for concurrent use.
type RetrievalIndex struct {
	cfg Config
	n   int

	// Typed-input class sizes, sorted by (nInt, nMem): what Probe sums
	// for the size of the sound candidate set without walking strands.
	classes []retrClass

	// Per-band sorted bucket directories over one flat id slab. Band
	// b's buckets are bandKeys[bandDir[b]:bandDir[b+1]] (sorted,
	// unique); bucket i's posting run is
	// bandIDs[bandOffs[i]:bandOffs[i+1]] (bandOffs has a final
	// sentinel).
	bandDir  []int32
	bandKeys []uint64
	bandOffs []int32
	bandIDs  []int32

	// Typed counts in SoA form for the probe's liveness filter.
	nInt, nMem []int32
}

// bandKeyFor hashes one band's rows of a signature. Shared with
// Index.bandKey so the scan-mode index and the retrieval table always
// bucket identically.
func bandKeyFor(sig Signature, rows, b int) uint64 {
	h := uint64(14695981039346656037) ^ uint64(b)<<32
	for _, v := range sig[b*rows : (b+1)*rows] {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
}

// BuildRetrieval constructs the probe table over sums under cfg. It is
// deterministic: the same summaries in the same order always produce
// the same table, which is what lets every way of reaching a corpus —
// bulk indexing, a loaded snapshot, a compaction — probe identically.
func BuildRetrieval(sums []Summary, cfg Config) *RetrievalIndex {
	cfg = cfg.Normalized()
	k := cfg.Len()
	rx := &RetrievalIndex{
		cfg:  cfg,
		n:    len(sums),
		nInt: make([]int32, len(sums)),
		nMem: make([]int32, len(sums)),
	}
	for id, s := range sums {
		if len(s.Sig) != k {
			panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
				len(s.Sig), cfg.Bands, cfg.Rows))
		}
		rx.nInt[id] = int32(s.NInt)
		rx.nMem[id] = int32(s.NMem)
	}
	rx.countClasses()

	// Band buckets: sort (key, id) pairs per band, then cut runs into
	// the shared slab.
	type pair struct {
		key uint64
		id  int32
	}
	pairs := make([]pair, len(sums))
	rx.bandDir = make([]int32, cfg.Bands+1)
	rx.bandIDs = make([]int32, 0, len(sums)*cfg.Bands)
	for b := 0; b < cfg.Bands; b++ {
		for id, s := range sums {
			pairs[id] = pair{key: bandKeyFor(s.Sig, cfg.Rows, b), id: int32(id)}
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].key != pairs[j].key {
				return pairs[i].key < pairs[j].key
			}
			return pairs[i].id < pairs[j].id
		})
		for i := 0; i < len(pairs); {
			j := i
			for j < len(pairs) && pairs[j].key == pairs[i].key {
				j++
			}
			rx.bandKeys = append(rx.bandKeys, pairs[i].key)
			rx.bandOffs = append(rx.bandOffs, int32(len(rx.bandIDs)))
			for ; i < j; i++ {
				rx.bandIDs = append(rx.bandIDs, pairs[i].id)
			}
		}
		rx.bandDir[b+1] = int32(len(rx.bandKeys))
	}
	rx.bandOffs = append(rx.bandOffs, int32(len(rx.bandIDs))) // sentinel
	return rx
}

// Len returns the number of indexed strands.
func (rx *RetrievalIndex) Len() int { return rx.n }

// Stale reports whether the table has fallen too far behind a corpus
// that now holds total strands. The table is immutable — live writes
// cannot batch-append into its sorted slabs — so the engine overlays
// written-since-build strands onto every probe (ProbeDelta) and
// rebuilds the table once the overlay exceeds maxDelta strands, the
// point where per-probe overlay work starts to erode the table's
// sublinearity. maxDelta < 0 means never (the overlay runs until
// compaction rebuilds the table anyway).
func (rx *RetrievalIndex) Stale(total, maxDelta int) bool {
	return maxDelta >= 0 && total-rx.n > maxDelta
}

// ProbeDelta extends a Probe result with the delta overlay: strands
// with ids in [Len(), len(sums)) — written live after the table was
// built; the corpus arrays are append-only within a generation — are
// tested for typed-input injectability alone, skipping ids whose counts
// entry is zero (tombstoned remnants). ids must be a Probe result over
// this table, so the returned slice stays sorted and duplicate-free
// (all delta ids are larger than any table id). Returns the extended
// ids and the number of sound candidates appended. The overlay is a
// superset of what a rebuilt table returns — every live delta strand
// passes, its band collisions untested — so a strand written since the
// build is never lost to the probe, and until the next rebuild (Stale,
// or a compaction) a query may verify a few pairs a fresh table would
// not have retrieved.
func (rx *RetrievalIndex) ProbeDelta(sum Summary, sums []Summary, counts []int, ids []int32) ([]int32, int) {
	sound := 0
	for j := rx.n; j < len(sums); j++ {
		if counts[j] == 0 {
			continue
		}
		if sum.Injects(sums[j]) || sums[j].Injects(sum) {
			ids = append(ids, int32(j))
			sound++
		}
	}
	return ids, sound
}

// bucket returns the posting run of the band-b bucket sig falls in: nil
// when no indexed strand shares it.
func (rx *RetrievalIndex) bucket(sig Signature, b int) []int32 {
	key := bandKeyFor(sig, rx.cfg.Rows, b)
	lo, hi := rx.bandDir[b], rx.bandDir[b+1]
	keys := rx.bandKeys[lo:hi]
	i := sort.Search(len(keys), func(i int) bool { return keys[i] >= key })
	if i == len(keys) || keys[i] != key {
		return nil
	}
	bi := int(lo) + i
	return rx.bandIDs[rx.bandOffs[bi]:rx.bandOffs[bi+1]]
}

func (rx *RetrievalIndex) live(sum Summary, id int32) bool {
	ti, tm := rx.nInt[id], rx.nMem[id]
	return (int32(sum.NInt) <= ti && int32(sum.NMem) <= tm) ||
		(ti <= int32(sum.NInt) && tm <= int32(sum.NMem))
}

// Probe appends the candidate ids for the query strand summarized by
// sum to out — the strands sharing a band bucket with it, filtered to
// the injectability-live set — and returns the (sorted, duplicate-free)
// result along with the size of the sound candidate set: the
// injectability-live strand count, which the result is a subset of (the
// ratio is the engine's recall proxy). scratch must be at least Len()
// long and all-false; it is restored to all-false before returning.
func (rx *RetrievalIndex) Probe(sum Summary, scratch []bool, out []int32) (ids []int32, sound int) {
	if len(sum.Sig) != rx.cfg.Len() {
		panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
			len(sum.Sig), rx.cfg.Bands, rx.cfg.Rows))
	}
	qi, qm := int32(sum.NInt), int32(sum.NMem)
	for _, c := range rx.classes {
		if (qi <= c.nInt && qm <= c.nMem) || (c.nInt <= qi && c.nMem <= qm) {
			sound += int(c.n)
		}
	}
	// Band-bucket collisions, deduplicated through scratch and filtered
	// to the live set.
	start := len(out)
	for b := 0; b < rx.cfg.Bands; b++ {
		for _, id := range rx.bucket(sum.Sig, b) {
			if !scratch[id] {
				scratch[id] = true
				if rx.live(sum, id) {
					out = append(out, id)
				}
			}
		}
	}
	// Un-mark everything touched: live hits are in out, the dead ones
	// must be rediscovered by re-walking the same buckets. Cheaper than
	// clearing all of scratch when candidate sets are small.
	for b := 0; b < rx.cfg.Bands; b++ {
		for _, id := range rx.bucket(sum.Sig, b) {
			scratch[id] = false
		}
	}
	cands := out[start:]
	sort.Slice(cands, func(i, j int) bool { return cands[i] < cands[j] })
	return out, sound
}

// RetrievalStats summarizes the table's shape for operators: degenerate
// banding (one giant bucket) shows up as posting-list skew long before
// it shows up as query latency.
type RetrievalStats struct {
	Buckets     int     // non-empty band buckets
	MaxPosting  int     // longest posting list
	MeanPosting float64 // mean posting-list length
	Skew        float64 // MaxPosting / MeanPosting (1 = perfectly even)
}

// Stats returns the table's shape summary.
func (rx *RetrievalIndex) Stats() RetrievalStats {
	st := RetrievalStats{Buckets: len(rx.bandKeys)}
	for i := range rx.bandKeys {
		n := int(rx.bandOffs[i+1] - rx.bandOffs[i])
		if n > st.MaxPosting {
			st.MaxPosting = n
		}
	}
	if st.Buckets > 0 {
		st.MeanPosting = float64(len(rx.bandIDs)) / float64(st.Buckets)
		st.Skew = float64(st.MaxPosting) / st.MeanPosting
	}
	return st
}

// countClasses fills the typed-input class sizes from the SoA count
// arrays.
func (rx *RetrievalIndex) countClasses() {
	type classKey struct{ nInt, nMem int32 }
	counts := map[classKey]int32{}
	for id := 0; id < rx.n; id++ {
		counts[classKey{rx.nInt[id], rx.nMem[id]}]++
	}
	rx.classes = make([]retrClass, 0, len(counts))
	for ck, n := range counts {
		rx.classes = append(rx.classes, retrClass{nInt: ck.nInt, nMem: ck.nMem, n: n})
	}
	sort.Slice(rx.classes, func(i, j int) bool {
		a, b := rx.classes[i], rx.classes[j]
		if a.nInt != b.nInt {
			return a.nInt < b.nInt
		}
		return a.nMem < b.nMem
	})
}
