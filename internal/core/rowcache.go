package core

import (
	"math/bits"
	"sync/atomic"

	"repro/internal/stats"
)

// pairKind says how a cached column was resolved. The split is what the
// per-pair telemetry counts; a row keeps it per column (two bits) so a
// renumbering compaction that drops dead columns can recount its tallies
// exactly instead of guessing which category each dropped column was in.
type pairKind uint8

const (
	kindIdentical pairKind = iota // structurally identical strands: VCP 1
	kindSkipped                   // forward-dead: VCP 0
	kindPruned                    // outside the §5.5 size window: VCP 0
	kindVerified                  // the verifier's answer (a dead pair is its exact 0)
	numKinds
)

// vcpRow is one query strand's cached VCP row, dense over unique-strand
// numbers [0, len(vals)): vals[j] = VCP(q, u_j), final where known holds
// bit j and zero elsewhere. A pair's VCP is a pure function of the two
// strands (DESIGN §10.7), so a known column never goes stale; what can
// change is the numbering, which rowEpoch tracks.
//
// A row is immutable once published: concurrent queries read its slices
// without a lock, so every change — new columns after a live add, columns
// resolved by a later query — goes through a private successor (grow) that
// replaces it in the cache. A column whose strand has died keeps whatever
// it held: its multiplicity is 0, so nothing reads it.
type vcpRow struct {
	vals []float64
	// known, kindLo and kindHi are bitsets over the columns: 8 bytes and
	// three bits per entry is the whole footprint of a row.
	known, kindLo, kindHi []uint64
	// tally[k] counts the known columns of kind k, so a complete row
	// credits the per-pair counters without a walk.
	tally [numKinds]int
	// h0 is the one thing a published row still learns: its H0 histogram
	// under the counts of the corpus version whose countsVer is ver, left
	// by the last query handed the row as it is.
	h0 atomic.Pointer[rowH0]
}

type rowH0 struct {
	ver uint64
	acc *stats.H0Accumulator
}

// h0At returns the row's H0 histogram for version ver, nil if it holds
// none for that version.
func (r *vcpRow) h0At(ver uint64) *stats.H0Accumulator {
	if r != nil {
		if h := r.h0.Load(); h != nil && h.ver == ver {
			return h.acc
		}
	}
	return nil
}

func newVCPRow(n int) *vcpRow {
	words := (n + 63) / 64
	sets := make([]uint64, 3*words)
	return &vcpRow{
		vals:  make([]float64, n),
		known: sets[:words:words], kindLo: sets[words : 2*words : 2*words], kindHi: sets[2*words:],
	}
}

// has reports whether column j is known; a nil row knows nothing.
func (r *vcpRow) has(j int) bool {
	return r != nil && j < len(r.vals) && r.known[j>>6]&(1<<(j&63)) != 0
}

func (r *vcpRow) kind(j int) pairKind {
	w, b := j>>6, uint(j&63)
	return pairKind((r.kindLo[w]>>b)&1 | (r.kindHi[w]>>b)&1<<1)
}

// set marks column j known as kind k. Only a row still private to its
// builder may be written.
func (r *vcpRow) set(j int, k pairKind) {
	w, b := j>>6, uint64(1)<<(j&63)
	r.known[w] |= b
	if k&1 != 0 {
		r.kindLo[w] |= b
	}
	if k&2 != 0 {
		r.kindHi[w] |= b
	}
	r.tally[k]++
}

// resolved returns the number of known columns.
func (r *vcpRow) resolved() int {
	if r == nil {
		return 0
	}
	return r.tally[kindIdentical] + r.tally[kindSkipped] + r.tally[kindPruned] + r.tally[kindVerified]
}

// unknown appends to todo the live columns below n that r has no value
// for — the walk a query still owes; an empty result means the row is
// complete for that view. Dead columns (counts 0: every owning target
// tombstoned) are never owed: nothing downstream reads them, and a column
// left unknown while dead is verified if a re-add brings it back.
func (r *vcpRow) unknown(n int, counts []int, todo []int32) []int32 {
	for w := 0; w<<6 < n; w++ {
		missing := ^uint64(0)
		if r != nil && w < len(r.known) {
			missing = ^r.known[w]
		}
		if rest := n - w<<6; rest < 64 {
			missing &= 1<<rest - 1
		}
		for ; missing != 0; missing &= missing - 1 {
			if j := w<<6 + bits.TrailingZeros64(missing); counts[j] > 0 {
				todo = append(todo, int32(j))
			}
		}
	}
	return todo
}

// grow returns a private copy of r (nil: an empty row) at least n wide.
func (r *vcpRow) grow(n int) *vcpRow {
	if r == nil {
		return newVCPRow(n)
	}
	next := newVCPRow(max(n, len(r.vals)))
	copy(next.vals, r.vals)
	copy(next.known, r.known)
	copy(next.kindLo, r.kindLo)
	copy(next.kindHi, r.kindHi)
	next.tally = r.tally
	return next
}

// remap renumbers r through a compaction's newIdx table (old strand
// number → new, -1 for a dropped strand) into a row n wide.
func (r *vcpRow) remap(newIdx []int, n int) *vcpRow {
	out := newVCPRow(n)
	for j := range r.vals {
		if k := newIdx[j]; k >= 0 && r.has(j) {
			out.vals[k] = r.vals[j]
			out.set(k, r.kind(j))
		}
	}
	return out
}

// lookupRows fetches the cached row of every query strand key in one
// visit to the cache lock. A query whose numbering epoch is not the
// cache's (it loaded its corpus before a renumbering compaction published
// the next) gets nothing and works from scratch.
func (db *DB) lookupRows(states []vcpRowState, epoch uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rowEpoch != epoch {
		return
	}
	for i := range states {
		states[i].base, _ = db.rows.Get(states[i].s.CanonicalKey())
	}
}

// publishRows installs the successor rows a query built, unless the
// numbering moved under it (the rows are then indexed by dead numbers and
// dropped). A successor always replaces the row it was built from. If
// another query got there first, it replaces that query's row only if it
// knows more columns, or as many over a wider view: two queries racing from
// the same base usually resolve the same columns, and whatever one of them
// loses is an ordinary miss later. A row is charged its width.
func (db *DB) publishRows(states []vcpRowState, epoch uint64) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.rowEpoch != epoch {
		return
	}
	for i := range states {
		next := states[i].next
		if next == nil {
			continue
		}
		key := states[i].s.CanonicalKey()
		cur, _ := db.rows.Get(key)
		if cur != nil && cur != states[i].base && (cur.resolved() > next.resolved() ||
			cur.resolved() == next.resolved() && len(cur.vals) >= len(next.vals)) {
			continue
		}
		db.rows.Put(key, next, int64(len(next.vals)))
	}
}

// remappedRows renumbers every cached row for a renumbering compaction.
// It runs under writeMu only: the heavy copy happens while queries keep
// using — and publishing to — the old cache; installRemapped swaps the
// result in together with the corpus of the new numbering. Rows published
// in between are not carried over (an ordinary miss later).
func (db *DB) remappedRows(newIdx []int, n int) map[string]*vcpRow {
	db.mu.Lock()
	rows := make(map[string]*vcpRow, db.rows.Stats().Entries)
	db.rows.Each(func(k string, r *vcpRow) { rows[k] = r })
	db.mu.Unlock()
	for k, r := range rows {
		rows[k] = r.remap(newIdx, n)
	}
	return rows
}

// installRemapped replaces the cache with rows in next's numbering, moves
// the epoch to next's and publishes next, all under the cache lock: a query
// that loads next finds the cache already in its epoch, and one still on
// the old numbering meets an epoch that is not its own — at lookup and again
// at publication, both under this lock — and leaves the cache alone.
func (db *DB) installRemapped(rows map[string]*vcpRow, next *corpus) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.rowEpoch = next.rowEpoch
	// Walk the store, not rows: a key evicted since remappedRows copied the
	// cache must stay gone, and the survivors keep their age.
	db.rows.Each(func(k string, _ *vcpRow) {
		if r := rows[k]; r != nil {
			db.rows.Put(k, r, int64(len(r.vals)))
		} else {
			db.rows.Drop(k)
		}
	})
	db.corpus.Store(next)
}
