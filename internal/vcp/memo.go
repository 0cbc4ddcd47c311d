package vcp

import "sync"

// The γ-fingerprint memo. A correspondence γ binds each input of the
// evaluated strand to a sample slot, and the strand's per-definition
// fingerprints under γ are a pure function of (compiled program, slot
// assignment, sample count): the kernel's BindRow/FillSlotBits/
// SlotMemSeed never see the other strand of the pair. Every pair that
// enumerates the same assignment therefore recomputes the same vector.
// The memo stores it once per (strand, assignment); Evaluator.Compute
// consults it at every enumeration leaf and sends only the misses
// through the kernel.

// memo maps slot assignments of one strand's inputs to the strand's
// fingerprints under them. Entries are append-only and never rewritten,
// so a fingerprint slice handed out by find stays valid after the lock
// is dropped — through slab growth (the old array stays reachable from
// the slice) and through eviction (reset drops the slabs, it does not
// reuse them).
type memo struct {
	// nIn and nd are the strand's input and definition counts; samples
	// is the sample count the owning Prepared was built with. An
	// evaluator configured for another sample count bypasses the memo.
	nIn, nd, samples int
	// pool, when non-nil, is charged for every byte the slabs hold.
	pool *MemoPool

	mu sync.RWMutex
	// Entry e is the assignment keys[e*nIn:(e+1)*nIn] with fingerprints
	// fps[e*nd:(e+1)*nd]. table is open-addressed over entry index + 1
	// (0 = empty) with linear probing; its length is a power of two at
	// least twice the entry count.
	keys  []int32
	fps   []uint64
	table []int32
	n     int

	// charged is what pool.bytes currently includes for this memo and
	// queued whether pool.order lists it; both are guarded by pool.mu.
	charged int64
	queued  bool
}

// hashSlots hashes a slot assignment; []int (the enumeration's form) and
// []int32 (the stored form) hash alike, so growth can rehash stored keys.
func hashSlots[T int | int32](a []T) uint64 {
	h := uint64(0x9E3779B97F4A7C15)
	for _, s := range a {
		h = (h ^ uint64(s)) * 0x100000001b3
	}
	return h ^ h>>29
}

// find returns the memoized fingerprints of assignment a (hash h), or
// nil. Callers hold mu.
func (m *memo) find(a []int, h uint64) []uint64 {
	if len(m.table) == 0 {
		return nil
	}
	mask := uint64(len(m.table) - 1)
probe:
	for i := h & mask; ; i = (i + 1) & mask {
		e := int(m.table[i]) - 1
		if e < 0 {
			return nil
		}
		key := m.keys[e*m.nIn : (e+1)*m.nIn]
		for j, s := range a {
			if key[j] != int32(s) {
				continue probe
			}
		}
		return m.fps[e*m.nd : (e+1)*m.nd : (e+1)*m.nd]
	}
}

// add stores freshly computed fingerprint rows: the r-th is buffer row
// i = idx[r], with assignment rows[i*nIn:], hash hashes[i] and
// fingerprints fresh[r*nd:]. A row another evaluator stored in the meantime is
// skipped. The pool, if any, is charged afterwards — outside mu, so
// the lock order is always pool.mu before memo.mu.
func (m *memo) add(rows []int, idx []int, hashes []uint64, fresh []uint64) {
	m.mu.Lock()
	for r, i := range idx {
		a := rows[i*m.nIn : (i+1)*m.nIn]
		if m.find(a, hashes[i]) != nil {
			continue
		}
		if 2*(m.n+1) > len(m.table) {
			m.grow()
		}
		m.keys = room(m.keys, m.nIn)
		for _, s := range a {
			m.keys = append(m.keys, int32(s))
		}
		m.fps = append(room(m.fps, m.nd), fresh[r*m.nd:(r+1)*m.nd]...)
		m.n++
		m.place(hashes[i], int32(m.n))
	}
	m.mu.Unlock()
	if m.pool != nil {
		m.pool.charge(m)
	}
}

// room returns s with capacity for n more elements. It grows a full slab
// by a quarter, not append's doubling: every slab byte is charged to the
// pool's budget, and slack is budget that holds no fingerprints.
func room[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	out := make([]T, len(s), max(len(s)+n, cap(s)+cap(s)/4))
	copy(out, s)
	return out
}

// place writes entry reference ref at the first free probe position.
func (m *memo) place(h uint64, ref int32) {
	mask := uint64(len(m.table) - 1)
	i := h & mask
	for m.table[i] != 0 {
		i = (i + 1) & mask
	}
	m.table[i] = ref
}

// grow doubles the table (from 8) and re-places every entry.
func (m *memo) grow() {
	m.table = make([]int32, max(8, 2*len(m.table)))
	for e := 0; e < m.n; e++ {
		m.place(hashSlots(m.keys[e*m.nIn:(e+1)*m.nIn]), int32(e+1))
	}
}

// footprint is the bytes the slabs hold (capacity, not length: that is
// what the heap pays for).
func (m *memo) footprint() int64 {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return int64(4*cap(m.keys) + 8*cap(m.fps) + 4*cap(m.table))
}

// reset forgets every entry and lets the slabs go.
func (m *memo) reset() {
	m.mu.Lock()
	m.keys, m.fps, m.table, m.n = nil, nil, nil, 0
	m.mu.Unlock()
}

// MemoPool is one byte budget shared by the γ-fingerprint memos of every
// Prepared attached to it. When a charge takes the pool over budget,
// whole strands' memos are dropped oldest-first (in order of first
// charge) until it fits; dropping a memo only costs re-evaluation, never
// correctness. Safe for concurrent use.
type MemoPool struct {
	budget int64

	mu        sync.Mutex
	bytes     int64   // Σ charged over order
	order     []*memo // memos holding bytes, oldest first
	evictions uint64
}

// MemoPoolStats is a point-in-time reading of a MemoPool.
type MemoPoolStats struct {
	// Bytes is the slab bytes currently charged; it never exceeds Budget.
	Bytes, Budget int64
	// Evictions counts strands whose memo was dropped to make room.
	Evictions uint64
}

// NewMemoPool returns a pool that keeps its memos within budget bytes.
func NewMemoPool(budget int64) *MemoPool {
	return &MemoPool{budget: budget}
}

// Attach makes the pool account for p's memo. Call it before p is
// shared; a Prepared never attached keeps an uncharged memo that lives
// and dies with it.
func (mp *MemoPool) Attach(p *Prepared) {
	if p.memo != nil {
		p.memo.pool = mp
	}
}

// Release drops the memos of ps and returns their bytes to the budget:
// the end of a query, or strands leaving the corpus.
func (mp *MemoPool) Release(ps ...*Prepared) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	dropped := false
	for _, p := range ps {
		if p.memo != nil && p.memo.queued {
			mp.dropLocked(p.memo)
			dropped = true
		}
	}
	if !dropped {
		return
	}
	kept := mp.order[:0]
	for _, m := range mp.order {
		if m.queued {
			kept = append(kept, m)
		}
	}
	clear(mp.order[len(kept):])
	mp.order = kept
}

// Stats reads the pool's gauge and eviction count.
func (mp *MemoPool) Stats() MemoPoolStats {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	return MemoPoolStats{Bytes: mp.bytes, Budget: mp.budget, Evictions: mp.evictions}
}

// charge brings the pool's account of m up to its current footprint and
// evicts until the budget holds again. The footprint is read here, under
// mp.mu, rather than passed in: an eviction between the caller's add and
// this call has already zeroed the account, and a stale figure would
// charge bytes that no longer exist.
func (mp *MemoPool) charge(m *memo) {
	mp.mu.Lock()
	defer mp.mu.Unlock()
	size := m.footprint()
	mp.bytes += size - m.charged
	m.charged = size
	if !m.queued && size > 0 {
		mp.order = append(mp.order, m)
		m.queued = true
	}
	// Oldest first, sparing the memo just charged while anything else can
	// go; when it alone exceeds the budget it goes too.
	for mp.bytes > mp.budget && len(mp.order) > 0 {
		victim := mp.order[0]
		mp.order[0] = nil
		mp.order = mp.order[1:]
		if victim == m && len(mp.order) > 0 {
			mp.order = append(mp.order, victim)
			continue
		}
		mp.dropLocked(victim)
		mp.evictions++
	}
}

// dropLocked empties m and removes its charge; the caller takes it off
// mp.order.
func (mp *MemoPool) dropLocked(m *memo) {
	mp.bytes -= m.charged
	m.charged = 0
	m.queued = false
	m.reset()
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
