package vcp

import (
	"sync"
	"sync/atomic"

	"repro/internal/fifo"
)

// The γ-fingerprint memo. A correspondence γ binds each input of the
// evaluated strand to a sample slot, and the strand's fingerprints under
// γ are a pure function of (compiled program, slot assignment, sample
// count): the kernel's BindRow/FillSlotBits/SlotMemSeed never see the
// other strand of the pair. Every pair that enumerates the same
// assignment therefore recomputes the same vector. The memo stores it
// once per (strand, assignment); Evaluator.Compute consults it at every
// enumeration leaf and sends only the misses through the kernel.
//
// An entry holds only what varies with the assignment: one fingerprint
// per distinct γ-dependent definition register (smt.Program.Varying).
// Definitions that share a register are scored through the class's
// multiplicity, and γ-invariant definitions are constants of the strand
// kept once on the Prepared — neither is stored per entry.

// memo maps slot assignments of one strand's inputs to the strand's
// reduced fingerprints under them. Entries are append-only, never
// rewritten and never moved: they live in chunks that are filled once
// and then only read, so a fingerprint slice handed out by find stays
// valid after the lock is dropped — while later entries go to new chunks,
// and through eviction (reset drops the chunks, it does not reuse them).
type memo struct {
	// nIn is the strand's input count and nd the length of its reduced
	// fingerprint vector (both may be 0).
	nIn, nd int
	// pool, when non-nil, is charged for every byte the memo holds and
	// counts every entry.
	pool *MemoPool

	mu sync.RWMutex
	// chunks holds the entries; the last chunk has tailLen of its tailCap
	// entry places filled, every earlier one is full. table is
	// open-addressed over entry reference + 1 (0 = empty) with linear
	// probing; its length is a power of two at least twice the entry
	// count n. bytes is what chunks and table hold (see footprint); it
	// changes only when a chunk is added or the table doubles.
	chunks           []memoChunk
	tailLen, tailCap int
	table            []int32
	n                int
	bytes            int64
}

// memoChunk is one run of entries: entry o is the assignment
// keys[o*nIn:(o+1)*nIn] (kept for exact comparison: a hash alone would
// make exactness probabilistic) with fingerprints fps[o*nd:(o+1)*nd].
// Both arrays are allocated at their final capacity.
type memoChunk struct {
	keys []int32
	fps  []uint64
}

// An entry reference is chunk<<memoChunkBits | place. A chunk holds a
// quarter of the entries before it — the slack the budget pays for stays
// under a fifth of the memo, as when slabs grew by a quarter — between
// memoMinChunk, so a strand with a handful of assignments pays for a
// handful, and 1<<memoChunkBits, so a large memo's slack is bounded in
// absolute terms too.
const (
	memoChunkBits   = 8
	memoMinChunk    = 4
	memoChunkHeader = 48 // two slice headers
)

// hashSlots hashes a slot assignment; []int (the enumeration's form) and
// []int32 (the stored form) hash alike, so growth can rehash stored keys.
func hashSlots[T int | int32](a []T) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, s := range a {
		h = (h ^ uint64(s)) * 0x100000001b3
	}
	return h ^ h>>29
}

// entry returns the key and fingerprints of entry reference ref.
func (m *memo) entry(ref int32) ([]int32, []uint64) {
	c, o := &m.chunks[ref>>memoChunkBits], int(ref&(1<<memoChunkBits-1))
	return c.keys[o*m.nIn : (o+1)*m.nIn], c.fps[o*m.nd : (o+1)*m.nd : (o+1)*m.nd]
}

// find returns the memoized fingerprints of assignment a (hash h) and
// whether the memo holds it: a strand with no γ-dependent definition has
// an empty vector, so the slice alone cannot say. Callers hold mu.
func (m *memo) find(a []int, h uint64) ([]uint64, bool) {
	if len(m.table) == 0 {
		return nil, false
	}
	mask := uint64(len(m.table) - 1)
probe:
	for i := h & mask; ; i = (i + 1) & mask {
		ref := m.table[i] - 1
		if ref < 0 {
			return nil, false
		}
		key, fps := m.entry(ref)
		for j, s := range a {
			if key[j] != int32(s) {
				continue probe
			}
		}
		return fps, true
	}
}

// add stores freshly computed fingerprint rows: the r-th is buffer row
// i = idx[r], with assignment rows[i*nIn:], hash hashes[i] and
// fingerprints fresh[r*nd:]. A row another evaluator stored in the
// meantime is skipped. The pool, if any, is charged only when the
// footprint moved, and afterwards — outside mu, so the lock order is
// always pool.mu before memo.mu.
func (m *memo) add(rows []int, idx []int, hashes []uint64, fresh []uint64) {
	m.mu.Lock()
	before, had := m.bytes, m.n
	for r, i := range idx {
		a := rows[i*m.nIn : (i+1)*m.nIn]
		if _, ok := m.find(a, hashes[i]); ok {
			continue
		}
		if 2*(m.n+1) > len(m.table) {
			m.grow()
		}
		if m.tailLen == m.tailCap {
			m.addChunk()
		}
		c := &m.chunks[len(m.chunks)-1]
		for _, s := range a {
			c.keys = append(c.keys, int32(s))
		}
		c.fps = append(c.fps, fresh[r*m.nd:(r+1)*m.nd]...)
		m.place(hashes[i], int32((len(m.chunks)-1)<<memoChunkBits|m.tailLen)+1)
		m.tailLen++
		m.n++
	}
	grew := m.bytes != before
	if m.pool != nil {
		m.pool.assignments.Add(int64(m.n - had))
	}
	m.mu.Unlock()
	if grew && m.pool != nil {
		m.pool.charge(m)
	}
}

// addChunk appends an empty chunk with room for a quarter of the entries
// held so far, within [memoMinChunk, 1<<memoChunkBits].
func (m *memo) addChunk() {
	n := min(max(m.n/4, memoMinChunk), 1<<memoChunkBits)
	m.chunks = append(m.chunks, memoChunk{
		keys: make([]int32, 0, n*m.nIn),
		fps:  make([]uint64, 0, n*m.nd),
	})
	m.tailLen, m.tailCap = 0, n
	m.bytes += int64(n*(4*m.nIn+8*m.nd)) + memoChunkHeader
}

// place writes table value v at the first free probe position.
func (m *memo) place(h uint64, v int32) {
	mask := uint64(len(m.table) - 1)
	i := h & mask
	for m.table[i] != 0 {
		i = (i + 1) & mask
	}
	m.table[i] = v
}

// grow doubles the table (from 8) and re-places every entry.
func (m *memo) grow() {
	old := m.table
	m.table = make([]int32, max(8, 2*len(old)))
	m.bytes += int64(4 * (len(m.table) - len(old)))
	for _, v := range old {
		if v != 0 {
			key, _ := m.entry(v - 1)
			m.place(hashSlots(key), v)
		}
	}
}

// footprint is the bytes the chunks and the table hold (capacity, not
// length: that is what the heap pays for).
func (m *memo) footprint() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.bytes
}

// reset forgets every entry and lets the chunks go. Only a pool resets
// the memos attached to it.
func (m *memo) reset() {
	m.mu.Lock()
	m.pool.assignments.Add(-int64(m.n))
	m.chunks, m.table = nil, nil
	m.tailLen, m.tailCap, m.n, m.bytes = 0, 0, 0, 0
	m.mu.Unlock()
}

// MemoPool is one byte budget shared by the γ-fingerprint memos of every
// Prepared attached to it: a fifo.Store of whole strands' memos, each
// charged its footprint, aged from its first charge. An evicted memo is
// emptied, which only costs re-evaluation, never correctness. Safe for
// concurrent use.
type MemoPool struct {
	mu      sync.Mutex
	charged *fifo.Store[*memo, struct{}]
	// assignments is Σ memo.n over the attached memos, kept by add and
	// reset so that reading it walks nothing.
	assignments atomic.Int64
}

// NewMemoPool returns a pool that keeps its memos within budget bytes.
func NewMemoPool(budget int64) *MemoPool {
	return &MemoPool{charged: fifo.New(budget, func(m *memo, _ struct{}) { m.reset() })}
}

// Attach makes the pool account for p's memo. Call it before p is
// shared; a Prepared never attached keeps an uncharged memo that lives
// and dies with it.
func (mp *MemoPool) Attach(p *Prepared) {
	if p.memo != nil {
		p.memo.pool = mp
	}
}

// Release drops the memos of ps and returns their bytes to the budget: the
// end of the query that evaluated them.
func (mp *MemoPool) Release(ps ...*Prepared) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	for _, p := range ps {
		if p.memo != nil && mp.charged.Drop(p.memo) {
			p.memo.reset()
		}
	}
}

// Stats reads the pool's account: bytes held of the budget, memos holding
// them, memos evicted.
func (mp *MemoPool) Stats() fifo.Stats {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return mp.charged.Stats()
}

// Assignments counts the slot assignments the attached memos remember, so
// Stats().Held over it is the cost of remembering one.
func (mp *MemoPool) Assignments() int64 { return mp.assignments.Load() }

// charge brings the pool's account of m up to its current footprint. The
// footprint is read here, under mp.mu, rather than passed in: an eviction
// between the caller's add and this call has already emptied m, and a
// stale figure would charge bytes that no longer exist.
func (mp *MemoPool) charge(m *memo) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	if size := m.footprint(); size > 0 {
		mp.charged.Put(m, struct{}{}, size)
	}
}

// fpSet is an immutable open-addressed set of fingerprints: a flat
// power-of-two table at most half full, probed linearly from the
// fingerprint's low bits (fingerprints are mix64 outputs, so those are
// already well spread). Zero marks an empty slot; a zero fingerprint is
// carried by hasZero.
type fpSet struct {
	slots   []uint64
	hasZero bool
}

func newFPSet(fps []uint64) fpSet {
	size := 4
	for size < 2*len(fps) {
		size *= 2
	}
	s := fpSet{slots: make([]uint64, size)}
	mask := uint64(size - 1)
insert:
	for _, h := range fps {
		if h == 0 {
			s.hasZero = true
			continue
		}
		i := h & mask
		for s.slots[i] != 0 {
			if s.slots[i] == h {
				continue insert
			}
			i = (i + 1) & mask
		}
		s.slots[i] = h
	}
	return s
}

func (s *fpSet) has(h uint64) bool {
	if h == 0 {
		return s.hasZero
	}
	mask := uint64(len(s.slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		switch s.slots[i] {
		case h:
			return true
		case 0:
			return false
		}
	}
}
