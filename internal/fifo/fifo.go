// Package fifo is the one budgeted store behind the engine's caches: the
// plan memo (package server), the VCP row cache (package core) and the
// γ-fingerprint memo pool (package vcp) each hold a Store and differ only
// in what an entry is and what it is charged.
package fifo

// Store maps keys to values, each charged a cost, first in first out under
// a fixed budget. The one eviction rule: when a Put takes the store over
// budget, entries go oldest first; the entry just charged is spared while
// anything else can go, and goes too if it alone exceeds the budget — so
// Held ≤ Budget holds after every call. An entry's age is its first Put:
// charging it again keeps its place in the queue.
//
// A Store is not safe for concurrent use: its owner guards it with the
// mutex that guards the rest of the owner's state.
type Store[K comparable, V any] struct {
	budget, held int64
	evictions    uint64
	entries      map[K]*entry[K, V]
	// The queue, oldest at head. An entry taken off it keeps its next
	// pointer, which is what lets Each walk on through fn's own removals.
	head, tail *entry[K, V]
	onEvict    func(K, V)
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	cost       int64
	prev, next *entry[K, V]
}

// Stats is a point-in-time reading of a Store.
type Stats struct {
	// Held is the sum of the held entries' costs; it never exceeds Budget.
	Held, Budget int64
	Entries      int
	// Evictions counts entries removed to make room (Drop is not one).
	Evictions uint64
}

// New returns an empty store that keeps Held within budget. onEvict, if not
// nil, is called with every entry the eviction rule removes, the one being
// Put included.
func New[K comparable, V any](budget int64, onEvict func(K, V)) *Store[K, V] {
	return &Store[K, V]{budget: budget, entries: map[K]*entry[K, V]{}, onEvict: onEvict}
}

// Get returns the value held for k.
func (s *Store[K, V]) Get(k K) (V, bool) {
	if e := s.entries[k]; e != nil {
		return e.val, true
	}
	var zero V
	return zero, false
}

// Put holds v for k at the given cost — a new entry at the young end of
// the queue, or a new value and charge for the entry k already has — and
// evicts until the budget holds again.
func (s *Store[K, V]) Put(k K, v V, cost int64) {
	e := s.entries[k]
	if e == nil {
		e = &entry[K, V]{key: k, prev: s.tail}
		if s.tail == nil {
			s.head = e
		} else {
			s.tail.next = e
		}
		s.tail = e
		s.entries[k] = e
	}
	s.held += cost - e.cost
	e.val, e.cost = v, cost
	for s.held > s.budget {
		victim := s.head
		if victim == e && e.next != nil {
			victim = e.next
		}
		s.remove(victim)
		s.evictions++
		if s.onEvict != nil {
			s.onEvict(victim.key, victim.val)
		}
	}
}

// Drop removes k's entry and its charge, and reports whether there was one.
// A key put again afterwards is a new entry.
func (s *Store[K, V]) Drop(k K) bool {
	e := s.entries[k]
	if e != nil {
		s.remove(e)
	}
	return e != nil
}

func (s *Store[K, V]) remove(e *entry[K, V]) {
	if e.prev == nil {
		s.head = e.next
	} else {
		e.prev.next = e.next
	}
	if e.next == nil {
		s.tail = e.prev
	} else {
		e.next.prev = e.prev
	}
	s.held -= e.cost
	delete(s.entries, e.key)
}

// Each calls fn for every entry, oldest first. fn may Put and Drop, the
// entry it was called with included: an entry removed before the walk
// reaches it is skipped, and the walk does not promise to reach one added
// meanwhile.
func (s *Store[K, V]) Each(fn func(K, V)) {
	for e := s.head; e != nil; e = e.next {
		if s.entries[e.key] == e {
			fn(e.key, e.val)
		}
	}
}

// Stats reads the store's gauges and its eviction count.
func (s *Store[K, V]) Stats() Stats {
	return Stats{Held: s.held, Budget: s.budget, Entries: len(s.entries), Evictions: s.evictions}
}
