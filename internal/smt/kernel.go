package smt

// The batched structure-of-arrays evaluation kernel: the hot loop of the
// whole system, rewritten so that each instruction dispatches once and
// runs a tight loop over all k sample values, instead of k full
// interpreter passes over boxed ivl.Value structs.
//
// Layout: every virtual register r owns a lane vector of k values.
// Integer registers live in one flat []uint64 (ints[r*k+s]); memory
// registers hold indices into a per-kernel arena of immutable store
// nodes (a pointer-free re-implementation of ivl.MemVal with identical
// hash and load semantics, so fingerprints stay byte-identical to the
// scalar path). Memory-typedness is static at compile time (Program.
// memReg), so the per-instruction lane loops carry no type tests.
//
// A kernel belongs to whoever evaluates, not to what is evaluated: it is
// a machine that is re-bound (Bind) to each program its owner meets,
// keeping its lane buffers and arena — they only ever grow — so scratch
// is sized by the largest program a worker has seen, not by the number
// of programs in the corpus. An owner that evaluates for a moment
// (vcp.Index, vcp.Prepare) borrows one from the package pool
// (AcquireKernel/ReleaseKernel); a vcp.Evaluator keeps one from its first
// memo miss until Close. Between binds, a kernel is reused across γ
// correspondences: the γ-invariant prefix (Program.prefixLen) — its lanes
// depend on neither the slot assignment nor the sample index — is
// evaluated once per bind and batch row, and each run resets the arena
// to the persistent watermark, refills the input lanes whose binding
// changed, and re-executes only the suffix. Between binds the γ loop
// performs zero heap allocations.
//
// γ-batched lanes: a kernel bound with Bind(p, k, g) carries g×k lanes
// per register — g complete γ candidate assignments side by side, each
// owning a contiguous k-lane row. BindRow stages one assignment per row;
// FingerprintsRows runs the compiled suffix over every staged row and
// extracts one fingerprint vector per row, folding the per-row hash
// chains interleaved so their serial multiply/mix latencies overlap
// across rows. A partial batch (rows < g) executes only its rows — the
// trailing rows cost nothing. Every width, g = 1 included, matches the
// scalar Program.Fingerprints bit for bit.
//
// The all-same block: on lanes s < iv = min(k, allSameSpecials) every
// integer input reads specials[s] whatever its slot, and every kernel op
// is lane-wise, so there each register is a function of μ alone — the
// slots the row gives the memory inputs. A fold runs from lane 0 upward,
// so a register's accumulator after lane iv-1 depends only on (binding,
// μ). The binding keeps one accumulator per folded register for each μ it
// has met (tupleTable); a row whose μ is known runs the suffix and the
// fold over lanes [iv, k) only, starting from the recorded accumulator.

import (
	"sync"

	"repro/internal/ivl"
)

// memNode is one node of the kernel's arena-backed memory: either a
// background root (parent < 0) or a store overlay. Semantics and hash
// construction mirror ivl.MemVal exactly. For a root, addr holds the
// background seed (roots have no store range; w stays 0, so the
// overlay containment tests never fire on them) — overlays inherit
// their chain's seed implicitly through their root, which keeps the
// node at 32 bytes, a size the g×k-lane store traffic notices.
type memNode struct {
	hash   uint64
	addr   uint64
	val    uint64
	parent int32
	w      uint8
}

// memHashTag separates the memory hash domain from integers when
// fingerprinting; it must match the constant used by the scalar paths
// (Program.Fingerprints, VectorHashes).
const memHashTag = 0xDEAD_BEEF_CAFE_F00D

// fpPrime is the fingerprint chaining multiplier shared with the scalar
// paths.
const fpPrime = 0x100_0000_01b3

// Kernel is a reusable SoA evaluation machine. Bind points it at a
// Program with a sample count and γ-batch width; everything from BindRow
// to VaryingRows then refers to that binding, until the next Bind. The zero
// Kernel is ready to Bind. Not safe for concurrent use: one per goroutine.
type Kernel struct {
	p *Program
	// k is the samples-per-row count; g the γ-batch width (rows); lanes
	// the per-register lane stride g*k. Row r of a register occupies
	// lanes [r*k, (r+1)*k) of its lane vector.
	k, g, lanes int
	// ints holds the integer lanes, lanes per register.
	ints []uint64
	// mems holds the memory lanes as arena indices (sized only when the
	// bound program touches memory).
	mems []int32
	// arena is the memory store-node arena. The first persist nodes are
	// permanent for the binding — the γ-invariant prefix's nodes for the
	// rows evaluated so far plus one interned block of k background roots
	// per input slot seen (rootBase maps slot to the block's first index)
	// — and survive every run; the arena is truncated back to persist at
	// the start of each run, discarding only the transient store
	// overlays the previous suffix execution built.
	arena    []memNode
	persist  int
	rootBase map[int]int32
	// prefixRows counts the batch rows whose lanes hold the evaluated
	// prefix: a row pays for it the first time a run reaches that far.
	prefixRows int
	// fps is the fingerprint scratch returned by Fingerprints,
	// FingerprintsRows and VaryingRows (row-major).
	fps []uint64
	// accs is the interleaved-fold accumulator scratch (g entries).
	accs []uint64
	// argHash is scratch for cCall argument hashing (lanes entries).
	argHash []uint64
	// rowSlots stages the slot assignment per (row, input) between
	// BindRow and the run.
	rowSlots []int
	// lastSlot remembers the slot each (row, input) was last bound to.
	// Input registers are never written by exec (every assignment
	// allocates a fresh register), and memory input lanes point at
	// interned roots in the arena's permanent region, so a lane row
	// whose slot is unchanged between runs is still valid and need not
	// be refilled — the delta-refill that makes consecutive γ
	// assignments sharing most bindings nearly free to stage.
	lastSlot []int
	// lanesRun counts suffix instructions × lanes executed over the
	// kernel's life, across binds (LanesExecuted).
	lanesRun uint64
	// iv is the all-same block's width, min(k, allSameSpecials); memIn
	// lists the indices of the program's memory inputs, whose slots form
	// a row's μ. tabs hold the accumulators at lane iv per μ, one table
	// per fold list (FingerprintsRows, VaryingRows). During a run, row r
	// reads entry rowEnt[r] of the list's table; a row with rowNew[r] set
	// met its μ first in this run, so it runs all k lanes and records the
	// entry.
	iv     int
	memIn  []int
	tabs   [2]tupleTable
	rowEnt []int
	rowNew []bool
}

// tupleTable maps each memory-slot tuple μ a binding has met to the fold
// accumulators of one register list after the all-same block: entry e has
// key keys[e*len(μ):] and accumulators accs[e*nd:]. Tuples are compared
// slot by slot. Bind empties it and keeps its buffers.
type tupleTable struct {
	keys []int
	accs []uint64
	n    int
}

// entry returns the index of the entry whose key is slots[memIn[j]] for
// every j, adding one with room for nd accumulators when there is none;
// added reports that it did.
func (t *tupleTable) entry(slots, memIn []int, nd int) (e int, added bool) {
	nm := len(memIn)
next:
	for e = 0; e < t.n; e++ {
		key := t.keys[e*nm : (e+1)*nm]
		for j, i := range memIn {
			if key[j] != slots[i] {
				continue next
			}
		}
		return e, false
	}
	for _, i := range memIn {
		t.keys = append(t.keys, slots[i])
	}
	t.accs = append(t.accs, make([]uint64, nd)...)
	t.n++
	return e, true
}

// reset empties the table, keeping its buffers.
func (t *tupleTable) reset() {
	t.keys, t.accs, t.n = t.keys[:0], t.accs[:0], 0
}

// kernelPool lends kernels to owners that evaluate one program for a
// moment. It is the only pool: its population follows the number of
// goroutines evaluating at once, never the number of programs.
var kernelPool = sync.Pool{New: func() any { return new(Kernel) }}

// AcquireKernel borrows a kernel, bound to nothing, from the package
// pool. Callers Bind it before use and ReleaseKernel it when done.
func AcquireKernel() *Kernel { return kernelPool.Get().(*Kernel) }

// ReleaseKernel returns a kernel to the package pool with its buffers;
// slices it handed out (Fingerprints and its Rows forms) die with the
// release.
func ReleaseKernel(kn *Kernel) {
	kn.p = nil // a pooled kernel must not keep a program alive
	kernelPool.Put(kn)
}

// sized returns s with length n, reallocating only when it must; the
// contents are unspecified.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Bind points the kernel at program p for k samples × g batch rows
// (g < 1 is treated as 1) and forgets everything the previous binding
// left that a run could read: the evaluated prefix, the arena with its
// interned roots, and every remembered slot binding. Buffers are kept
// and only grow. Register lanes keep stale values from earlier programs,
// which is safe for the reason partial batches are: a lane is written —
// by the prefix, the input refill or an earlier suffix instruction —
// before anything reads it.
func (kn *Kernel) Bind(p *Program, k, g int) {
	if g < 1 {
		g = 1
	}
	kn.p, kn.k, kn.g, kn.lanes = p, k, g, g*k
	n := p.nregs * kn.lanes
	kn.ints = sized(kn.ints, n)
	if p.hasMem {
		kn.mems = sized(kn.mems, n)
	}
	kn.fps = sized(kn.fps, len(p.defRegs)*g)
	kn.accs = sized(kn.accs, g)
	kn.argHash = sized(kn.argHash, kn.lanes)
	kn.rowSlots = sized(kn.rowSlots, len(p.Inputs)*g)
	kn.lastSlot = sized(kn.lastSlot, len(p.Inputs)*g)
	for i := range kn.lastSlot {
		kn.lastSlot[i] = -1
	}
	kn.arena = kn.arena[:0]
	kn.persist, kn.prefixRows = 0, 0
	clear(kn.rootBase)
	kn.iv = min(k, allSameSpecials)
	kn.memIn = kn.memIn[:0]
	for i, in := range p.Inputs {
		if in.Type == ivl.Mem {
			kn.memIn = append(kn.memIn, i)
		}
	}
	kn.tabs[0].reset()
	kn.tabs[1].reset()
	kn.rowEnt = sized(kn.rowEnt, g)
	kn.rowNew = sized(kn.rowNew, g)
}

// LanesExecuted returns the suffix instructions × lanes the kernel has
// executed since it was made, across every binding: the work measure a
// caller reads before and after a run.
func (kn *Kernel) LanesExecuted() uint64 { return kn.lanesRun }

// BindRow stages the slot assignment for batch row r (0 <= r < g). The
// lanes are not filled until the run, which is what lets a partial
// batch skip its unused trailing rows entirely.
func (kn *Kernel) BindRow(r int, slotOf []int) {
	nIn := len(kn.p.Inputs)
	copy(kn.rowSlots[r*nIn:(r+1)*nIn], slotOf)
}

// runRows evaluates the compiled code over batch rows [0, rows), whose
// assignments must have been staged with BindRow and looked up in a tuple
// table (evalRows): the suffix runs over all k lanes of a row whose μ is
// new and over lanes [iv, k) of one whose μ is known. Rows this
// binding has not run before first get the γ-invariant prefix (it depends
// on neither slots nor samples, so it stays valid in a row's lanes until
// the next Bind); input rows whose slot binding is unchanged since their
// last run are not refilled.
func (kn *Kernel) runRows(rows int) {
	kn.arena = kn.arena[:kn.persist]
	k, L := kn.k, kn.lanes
	if rows > kn.prefixRows {
		kn.exec(0, kn.p.prefixLen, kn.prefixRows*k, rows*k)
		kn.prefixRows = rows
		kn.persist = len(kn.arena)
	}
	nIn := len(kn.p.Inputs)
	for r := 0; r < rows; r++ {
		base := r * nIn
		for i, in := range kn.p.Inputs {
			slot := kn.rowSlots[base+i]
			if kn.lastSlot[base+i] == slot {
				continue
			}
			kn.lastSlot[base+i] = slot
			if in.Type == ivl.Mem {
				rb := kn.internRoots(slot)
				lane := kn.mems[i*L+r*k : i*L+r*k+k]
				for s := range lane {
					lane[s] = rb + int32(s)
				}
			} else {
				FillSlotBits(kn.ints[i*L+r*k:i*L+r*k+k], slot)
			}
		}
	}
	for r := 0; r < rows; r++ {
		lo, hi := r*k, (r+1)*k
		if !kn.rowNew[r] {
			lo += kn.iv
		}
		if lo < hi {
			kn.exec(kn.p.prefixLen, len(kn.p.code), lo, hi)
			kn.lanesRun += uint64((len(kn.p.code) - kn.p.prefixLen) * (hi - lo))
		}
	}
}

// internRoots returns the arena index of slot's block of k background
// roots, appending it to the arena's permanent region on first use. The
// blocks are identical to the roots a per-run rebuild would create —
// node hashes depend only on (sample, slot) — so reusing them across
// runs leaves every fingerprint unchanged while making a repeated mem
// binding as cheap to stage as an unchanged integer one. Interning
// happens during input refill, before the suffix appends any transient
// overlay, so the permanent region stays a prefix of the arena.
func (kn *Kernel) internRoots(slot int) int32 {
	if rb, ok := kn.rootBase[slot]; ok {
		return rb
	}
	if kn.rootBase == nil {
		kn.rootBase = make(map[int]int32)
	}
	rb := int32(len(kn.arena))
	for s := 0; s < kn.k; s++ {
		seed := SlotMemSeed(s, slot)
		kn.arena = append(kn.arena, memNode{addr: seed, hash: mix64(seed), parent: -1})
	}
	kn.persist = len(kn.arena)
	kn.rootBase[slot] = rb
	return rb
}

// Fingerprints runs the program under the slot assignment and returns
// one value-vector fingerprint per original SSA definition, in
// definition order — byte-identical to Program.Fingerprints. The
// returned slice is the kernel's scratch buffer: it is overwritten by
// the next call and must not be retained past the next Bind or release.
func (kn *Kernel) Fingerprints(slotOf []int) []uint64 {
	kn.BindRow(0, slotOf)
	return kn.FingerprintsRows(1)
}

// FingerprintsRows executes rows staged γ candidates in one batch and
// returns their fingerprints row-major: entry [r*ndefs + d] is row r's
// fingerprint for the d-th SSA definition, each byte-identical to a
// lone Fingerprints call under that row's assignment. The returned
// slice is kernel scratch, overwritten by the next call.
func (kn *Kernel) FingerprintsRows(rows int) []uint64 {
	return kn.evalRows(rows, kn.p.defRegs, &kn.tabs[0])
}

// VaryingRows is FingerprintsRows reduced to what varies with the
// assignment: entry [r*len(Varying) + i] is row r's fingerprint of the
// program's i-th distinct γ-dependent definition register (the
// fingerprint FingerprintsRows reports for definition Varying()[i].Def
// and for every other definition that register holds). γ-invariant
// definitions are not folded at all. This is the form the production γ
// loop scores and memoizes.
func (kn *Kernel) VaryingRows(rows int) []uint64 {
	return kn.evalRows(rows, kn.p.varRegs, &kn.tabs[1])
}

// evalRows runs the staged rows and folds the listed registers through
// tab, the list's tuple table. It first looks each row's μ up, adding the
// tuples the binding has not met: the first row with a new μ records it
// (rowNew), and a later row with the same μ, in this batch or a later
// one, reads it.
func (kn *Kernel) evalRows(rows int, regs []defInfo, tab *tupleTable) []uint64 {
	nIn := len(kn.p.Inputs)
	for r := 0; r < rows; r++ {
		kn.rowEnt[r], kn.rowNew[r] = tab.entry(kn.rowSlots[r*nIn:(r+1)*nIn], kn.memIn, len(regs))
	}
	kn.runRows(rows)
	return kn.foldRows(regs, rows, tab)
}

// foldRows reduces each active row's lane vectors of the listed
// registers to fingerprints, through tab, the list's tuple table: a row
// that met its μ first in this run folds lanes [0, iv) from 0 into its
// entry, then every row folds lanes [iv, k) on from its entry's
// accumulator. The per-row fold is a serial hash chain (multiply, xor,
// mix per sample); folding rows interleaved — inner loop over rows —
// overlaps those chains' latencies, which is where most of the γ-batch
// amortization comes from.
func (kn *Kernel) foldRows(regs []defInfo, rows int, tab *tupleTable) []uint64 {
	k, L, iv := kn.k, kn.lanes, kn.iv
	nd := len(regs)
	fps := kn.fps[:rows*nd]
	accs := kn.accs[:rows]
	ents := kn.rowEnt[:rows]
	for r := range ents {
		if !kn.rowNew[r] {
			continue
		}
		rec := tab.accs[ents[r]*nd : (ents[r]+1)*nd]
		for d := range regs {
			base := regs[d].reg*L + r*k
			var acc uint64
			if regs[d].isMem {
				for _, m := range kn.mems[base : base+iv] {
					acc = mix64(acc*fpPrime ^ mix64(kn.arena[m].hash^memHashTag))
				}
			} else {
				for _, v := range kn.ints[base : base+iv] {
					acc = mix64(acc*fpPrime ^ v)
				}
			}
			rec[d] = acc
		}
	}
	start := func(r, d int) uint64 { return tab.accs[ents[r]*nd+d] }
	for d := range regs {
		di := &regs[d]
		base := di.reg * L
		if di.isMem {
			switch rows {
			case 1:
				lane := kn.mems[base+iv : base+k]
				acc := start(0, d)
				for _, m := range lane {
					h := mix64(kn.arena[m].hash ^ memHashTag)
					acc = mix64(acc*fpPrime ^ h)
				}
				fps[d] = acc
			case 8:
				// The default width's chains unrolled into locals: eight
				// accumulators live in registers, so the per-sample step
				// costs no accumulator loads/stores and the eight serial
				// mix chains retire in parallel.
				arena := kn.arena
				l0, l1 := kn.mems[base:base+k], kn.mems[base+k:base+2*k]
				l2, l3 := kn.mems[base+2*k:base+3*k], kn.mems[base+3*k:base+4*k]
				l4, l5 := kn.mems[base+4*k:base+5*k], kn.mems[base+5*k:base+6*k]
				l6, l7 := kn.mems[base+6*k:base+7*k], kn.mems[base+7*k:base+8*k]
				a0, a1, a2, a3 := start(0, d), start(1, d), start(2, d), start(3, d)
				a4, a5, a6, a7 := start(4, d), start(5, d), start(6, d), start(7, d)
				for s := iv; s < k; s++ {
					a0 = mix64(a0*fpPrime ^ mix64(arena[l0[s]].hash^memHashTag))
					a1 = mix64(a1*fpPrime ^ mix64(arena[l1[s]].hash^memHashTag))
					a2 = mix64(a2*fpPrime ^ mix64(arena[l2[s]].hash^memHashTag))
					a3 = mix64(a3*fpPrime ^ mix64(arena[l3[s]].hash^memHashTag))
					a4 = mix64(a4*fpPrime ^ mix64(arena[l4[s]].hash^memHashTag))
					a5 = mix64(a5*fpPrime ^ mix64(arena[l5[s]].hash^memHashTag))
					a6 = mix64(a6*fpPrime ^ mix64(arena[l6[s]].hash^memHashTag))
					a7 = mix64(a7*fpPrime ^ mix64(arena[l7[s]].hash^memHashTag))
				}
				fps[d], fps[nd+d], fps[2*nd+d], fps[3*nd+d] = a0, a1, a2, a3
				fps[4*nd+d], fps[5*nd+d], fps[6*nd+d], fps[7*nd+d] = a4, a5, a6, a7
			default:
				mlane := kn.mems[base : base+rows*k]
				arena := kn.arena
				for r := range accs {
					accs[r] = start(r, d)
				}
				for s := iv; s < k; s++ {
					for r := 0; r < rows; r++ {
						h := mix64(arena[mlane[r*k+s]].hash ^ memHashTag)
						accs[r] = mix64(accs[r]*fpPrime ^ h)
					}
				}
				for r := 0; r < rows; r++ {
					fps[r*nd+d] = accs[r]
				}
			}
			continue
		}
		switch rows {
		case 1:
			lane := kn.ints[base+iv : base+k]
			acc := start(0, d)
			for _, v := range lane {
				acc = mix64(acc*fpPrime ^ v)
			}
			fps[d] = acc
		case 8:
			l0, l1 := kn.ints[base:base+k], kn.ints[base+k:base+2*k]
			l2, l3 := kn.ints[base+2*k:base+3*k], kn.ints[base+3*k:base+4*k]
			l4, l5 := kn.ints[base+4*k:base+5*k], kn.ints[base+5*k:base+6*k]
			l6, l7 := kn.ints[base+6*k:base+7*k], kn.ints[base+7*k:base+8*k]
			a0, a1, a2, a3 := start(0, d), start(1, d), start(2, d), start(3, d)
			a4, a5, a6, a7 := start(4, d), start(5, d), start(6, d), start(7, d)
			for s := iv; s < k; s++ {
				a0 = mix64(a0*fpPrime ^ l0[s])
				a1 = mix64(a1*fpPrime ^ l1[s])
				a2 = mix64(a2*fpPrime ^ l2[s])
				a3 = mix64(a3*fpPrime ^ l3[s])
				a4 = mix64(a4*fpPrime ^ l4[s])
				a5 = mix64(a5*fpPrime ^ l5[s])
				a6 = mix64(a6*fpPrime ^ l6[s])
				a7 = mix64(a7*fpPrime ^ l7[s])
			}
			fps[d], fps[nd+d], fps[2*nd+d], fps[3*nd+d] = a0, a1, a2, a3
			fps[4*nd+d], fps[5*nd+d], fps[6*nd+d], fps[7*nd+d] = a4, a5, a6, a7
		default:
			lane := kn.ints[base : base+rows*k]
			for r := range accs {
				accs[r] = start(r, d)
			}
			for s := iv; s < k; s++ {
				for r := 0; r < rows; r++ {
					accs[r] = mix64(accs[r]*fpPrime ^ lane[r*k+s])
				}
			}
			for r := 0; r < rows; r++ {
				fps[r*nd+d] = accs[r]
			}
		}
	}
	return fps
}

// newRoot appends a background memory root and returns its index.
func (kn *Kernel) newRoot(seed uint64) int32 {
	idx := int32(len(kn.arena))
	kn.arena = append(kn.arena, memNode{addr: seed, hash: mix64(seed), parent: -1})
	return idx
}

// load reads w bytes little-endian, newest covering store winning per
// byte and the deterministic background filling the rest — the same
// bytes MemVal.Load's per-byte chain walks produce, but collected in a
// single walk: each overlay node fills whichever of its bytes overlap
// the load window and are not already claimed by a newer node, and the
// walk stops as soon as every byte is filled.
func (kn *Kernel) load(idx int32, addr uint64, w uint) uint64 {
	arena := kn.arena
	var v uint64
	var filled, need uint32
	need = uint32(1)<<w - 1
	n := idx
	for ; arena[n].parent >= 0; n = arena[n].parent {
		nd := &arena[n]
		// A load exactly matching the newest unshadowed store returns
		// its (already width-masked) value outright — the common shape
		// of spill/reload pairs in lifted code. Only valid when the
		// store's range does not wrap the address space: byteAt's
		// unwrapped upper-bound test makes a wrapping store invisible
		// to every byte, so such a store must fall through to the
		// per-byte walk below.
		if filled == 0 && nd.addr == addr && uint(nd.w) == w && addr+uint64(w) > addr {
			return nd.val
		}
		// Per-byte containment test identical to MemVal.byteAt's, so
		// stores whose ranges wrap the address space behave exactly as
		// the per-byte walks did.
		for i := uint(0); i < w; i++ {
			if filled&(1<<i) != 0 {
				continue
			}
			if a := addr + uint64(i); a >= nd.addr && a < nd.addr+uint64(nd.w) {
				filled |= 1 << i
				v |= uint64(byte(nd.val>>(8*(a-nd.addr)))) << (8 * i)
			}
		}
		if filled == need {
			return v
		}
	}
	// n is now the chain's root, whose addr field holds the background
	// seed.
	seed := arena[n].addr
	for i := uint(0); i < w; i++ {
		if filled&(1<<i) == 0 {
			v |= uint64(byte(mix64(seed^mix64(addr+uint64(i))))) << (8 * i)
		}
	}
	return v
}

// exec runs code[lo:hi] over lanes [l0, l1) of each register: one
// dispatch per instruction, one tight loop per lane vector. The lane
// stride is kn.lanes (g×k); a partial γ batch runs at most rows·k lanes
// so the unused trailing rows cost nothing, and a row whose μ is known
// only its lanes [iv, k). Lanes outside the range may hold stale values
// (including dangling arena indices from a previous, longer run or an
// earlier binding); they are never read, because every op is lane-wise
// and foldRows reads a row's lanes [0, iv) only in the run that swept
// them.
func (kn *Kernel) exec(lo, hi, l0, l1 int) {
	L := kn.lanes
	code := kn.p.code
	memReg := kn.p.memReg
	for idx := lo; idx < hi; idx++ {
		in := &code[idx]
		d := in.dst * L
		switch in.op {
		case cConst:
			lane := kn.ints[d+l0 : d+l1]
			v := in.val
			for s := range lane {
				lane[s] = v
			}
		case cBin:
			if memReg[in.a] || memReg[in.b] {
				kn.execBinMem(in, d, l0, l1)
				continue
			}
			evalBinLanes(in.bin, kn.ints[d+l0:d+l1], kn.ints[in.a*L+l0:in.a*L+l1], kn.ints[in.b*L+l0:in.b*L+l1])
		case cUn:
			dst, x := kn.ints[d+l0:d+l1], kn.ints[in.a*L+l0:in.a*L+l1]
			switch in.un {
			case ivl.Not:
				for s := range dst {
					dst[s] = ^x[s]
				}
			case ivl.Neg:
				for s := range dst {
					dst[s] = -x[s]
				}
			default: // BoolNot
				for s := range dst {
					dst[s] = boolBit(x[s] == 0)
				}
			}
		case cIte:
			c := kn.ints[in.c*L+l0 : in.c*L+l1]
			if memReg[in.dst] {
				dst := kn.mems[d+l0 : d+l1]
				a, b := kn.mems[in.a*L+l0:in.a*L+l1], kn.mems[in.b*L+l0:in.b*L+l1]
				for s := range dst {
					if c[s] != 0 {
						dst[s] = a[s]
					} else {
						dst[s] = b[s]
					}
				}
			} else {
				dst := kn.ints[d+l0 : d+l1]
				a, b := kn.ints[in.a*L+l0:in.a*L+l1], kn.ints[in.b*L+l0:in.b*L+l1]
				for s := range dst {
					if c[s] != 0 {
						dst[s] = a[s]
					} else {
						dst[s] = b[s]
					}
				}
			}
		case cTrunc:
			dst, x := kn.ints[d+l0:d+l1], kn.ints[in.a*L+l0:in.a*L+l1]
			if in.bits >= 64 {
				copy(dst, x)
			} else {
				mask := (uint64(1) << in.bits) - 1
				for s := range dst {
					dst[s] = x[s] & mask
				}
			}
		case cSext:
			dst, x := kn.ints[d+l0:d+l1], kn.ints[in.a*L+l0:in.a*L+l1]
			sh := 64 - in.bits
			for s := range dst {
				dst[s] = uint64(int64(x[s]<<sh) >> sh)
			}
		case cLoad:
			dst := kn.ints[d+l0 : d+l1]
			m, a := kn.mems[in.a*L+l0:in.a*L+l1], kn.ints[in.b*L+l0:in.b*L+l1]
			w := in.w
			for s := range dst {
				dst[s] = kn.load(m[s], a[s], w)
			}
		case cStore:
			dst := kn.mems[d+l0 : d+l1]
			m := kn.mems[in.a*L+l0 : in.a*L+l1]
			a, v := kn.ints[in.b*L+l0:in.b*L+l1], kn.ints[in.c*L+l0:in.c*L+l1]
			w := in.w
			// One overlay per lane, appended as a block: grow the arena
			// once and write by index, so the hot store loop carries no
			// per-lane append or capacity checks. Semantics and hash
			// construction mirror ivl.MemVal.Store exactly.
			arena := kn.arena
			base, nl := len(arena), l1-l0
			if cap(arena) < base+nl {
				na := make([]memNode, base, 2*cap(arena)+nl)
				copy(na, arena)
				arena = na
			}
			arena = arena[:base+nl]
			mask := ^uint64(0)
			if w < 8 {
				mask = (uint64(1) << (8 * w)) - 1
			}
			for s := range dst {
				val := v[s] & mask
				arena[base+s] = memNode{
					addr:   a[s],
					val:    val,
					w:      uint8(w),
					parent: m[s],
					hash:   mix64(arena[m[s]].hash ^ mix64(a[s])*3 ^ mix64(val) ^ uint64(w)),
				}
				dst[s] = int32(base + s)
			}
			kn.arena = arena
		case cCall:
			h := kn.argHash[:l1-l0]
			sym := in.sym
			for s := range h {
				h[s] = sym
			}
			for _, ar := range in.args {
				if memReg[ar] {
					lane := kn.mems[ar*L+l0 : ar*L+l1]
					for s := range h {
						h[s] = mix64(h[s] ^ kn.arena[lane[s]].hash)
					}
				} else {
					lane := kn.ints[ar*L+l0 : ar*L+l1]
					for s := range h {
						h[s] = mix64(h[s] ^ lane[s])
					}
				}
			}
			if in.memC {
				dst := kn.mems[d+l0 : d+l1]
				for s := range dst {
					dst[s] = kn.newRoot(h[s])
				}
			} else {
				copy(kn.ints[d+l0:d+l1], h)
			}
		}
	}
}

// execBinMem handles the rare cBin whose operands include a memory
// value: only (in)equality is meaningful; everything else yields 0, as
// in the scalar path.
func (kn *Kernel) execBinMem(in *cinstr, d, l0, l1 int) {
	L := kn.lanes
	dst := kn.ints[d+l0 : d+l1]
	memA, memB := kn.p.memReg[in.a], kn.p.memReg[in.b]
	if in.bin != ivl.Eq && in.bin != ivl.Ne {
		for s := range dst {
			dst[s] = 0
		}
		return
	}
	if memA != memB {
		// Mixed memory/integer comparison: never equal.
		v := boolBit(in.bin == ivl.Ne)
		for s := range dst {
			dst[s] = v
		}
		return
	}
	a, b := kn.mems[in.a*L+l0:in.a*L+l1], kn.mems[in.b*L+l0:in.b*L+l1]
	for s := range dst {
		eq := kn.arena[a[s]].hash == kn.arena[b[s]].hash
		if in.bin == ivl.Ne {
			eq = !eq
		}
		dst[s] = boolBit(eq)
	}
}

// evalBinLanes applies one binary operator across whole lanes: the
// operator dispatch happens once, the loop body is branch-free for the
// common operators. Semantics match ivl.EvalBin element-wise.
func evalBinLanes(op ivl.BinOp, dst, x, y []uint64) {
	switch op {
	case ivl.Add:
		for s := range dst {
			dst[s] = x[s] + y[s]
		}
	case ivl.Sub:
		for s := range dst {
			dst[s] = x[s] - y[s]
		}
	case ivl.Mul:
		for s := range dst {
			dst[s] = x[s] * y[s]
		}
	case ivl.And:
		for s := range dst {
			dst[s] = x[s] & y[s]
		}
	case ivl.Or:
		for s := range dst {
			dst[s] = x[s] | y[s]
		}
	case ivl.Xor:
		for s := range dst {
			dst[s] = x[s] ^ y[s]
		}
	case ivl.Shl:
		for s := range dst {
			dst[s] = x[s] << (y[s] & 63)
		}
	case ivl.LShr:
		for s := range dst {
			dst[s] = x[s] >> (y[s] & 63)
		}
	case ivl.AShr:
		for s := range dst {
			dst[s] = uint64(int64(x[s]) >> (y[s] & 63))
		}
	case ivl.Eq:
		for s := range dst {
			dst[s] = boolBit(x[s] == y[s])
		}
	case ivl.Ne:
		for s := range dst {
			dst[s] = boolBit(x[s] != y[s])
		}
	case ivl.SLt:
		for s := range dst {
			dst[s] = boolBit(int64(x[s]) < int64(y[s]))
		}
	case ivl.SLe:
		for s := range dst {
			dst[s] = boolBit(int64(x[s]) <= int64(y[s]))
		}
	case ivl.SGt:
		for s := range dst {
			dst[s] = boolBit(int64(x[s]) > int64(y[s]))
		}
	case ivl.SGe:
		for s := range dst {
			dst[s] = boolBit(int64(x[s]) >= int64(y[s]))
		}
	case ivl.ULt:
		for s := range dst {
			dst[s] = boolBit(x[s] < y[s])
		}
	case ivl.ULe:
		for s := range dst {
			dst[s] = boolBit(x[s] <= y[s])
		}
	case ivl.UGt:
		for s := range dst {
			dst[s] = boolBit(x[s] > y[s])
		}
	case ivl.UGe:
		for s := range dst {
			dst[s] = boolBit(x[s] >= y[s])
		}
	default:
		// SDiv/SRem carry per-element totalization branches; they are
		// rare enough that the shared scalar helper is fine.
		for s := range dst {
			dst[s] = ivl.EvalBin(op, x[s], y[s])
		}
	}
}
