package smt

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"repro/internal/ivl"
)

// kernelSampleCounts are the sample counts the kernel tests bind at: each
// side of the all-same block's end (allSameSpecials = 22), a count inside
// it, the default and a wider battery.
var kernelSampleCounts = []int{3, 21, 22, 23, DefaultSamples, 64}

// randomKernelStrand builds a random SSA assignment list exercising the
// whole instruction surface the kernel implements: integer operators,
// constants, ites, truncation/extension, loads, stores (which define new
// memory variables), integer calls and memory-producing calls, and
// memory (in)equality comparisons. Its one memory input is the last.
func randomKernelStrand(rng *rand.Rand, nIn, nStmts int) ([]ivl.Stmt, []ivl.Var) {
	return randomMemStrand(rng, nIn, 1, nStmts)
}

// randomMemStrand is randomKernelStrand with nMem memory inputs after the
// nIn integer ones. With none, memory comes only from memory-producing
// calls, and the memory operators wait until one has been made.
func randomMemStrand(rng *rand.Rand, nIn, nMem, nStmts int) ([]ivl.Stmt, []ivl.Var) {
	var inputs []ivl.Var
	var intVars, memVars []string
	for i := 0; i < nIn; i++ {
		v := ivl.Var{Name: "in" + string(rune('a'+i)), Type: ivl.Int}
		inputs = append(inputs, v)
		intVars = append(intVars, v.Name)
	}
	for i := 0; i < nMem; i++ {
		name := "mem" + strings.Repeat("'", i)
		inputs = append(inputs, ivl.Var{Name: name, Type: ivl.Mem})
		memVars = append(memVars, name)
	}

	ops := []ivl.BinOp{ivl.Add, ivl.Sub, ivl.Mul, ivl.And, ivl.Or, ivl.Xor,
		ivl.Shl, ivl.LShr, ivl.AShr, ivl.Eq, ivl.Ne, ivl.SLt, ivl.SLe,
		ivl.SGt, ivl.SGe, ivl.ULt, ivl.ULe, ivl.UGt, ivl.UGe, ivl.SDiv, ivl.SRem}
	widths := []uint{1, 2, 4, 8}

	pickInt := func() ivl.Expr {
		if rng.Intn(4) == 0 {
			return ivl.C(rng.Uint64() >> uint(rng.Intn(56)))
		}
		return ivl.IntVar(intVars[rng.Intn(len(intVars))])
	}
	pickMem := func() ivl.Expr {
		return ivl.VarExpr{V: ivl.Var{Name: memVars[rng.Intn(len(memVars))], Type: ivl.Mem}}
	}

	var stmts []ivl.Stmt
	for i := 0; i < nStmts; i++ {
		var rhs ivl.Expr
		dstType := ivl.Int
		op := rng.Intn(12)
		if len(memVars) == 0 && op >= 4 && op <= 9 && op != 7 {
			op = 10 // no memory to read yet: a binary operator instead
		}
		switch op {
		case 0:
			rhs = ivl.Un([]ivl.UnOp{ivl.Not, ivl.Neg, ivl.BoolNot}[rng.Intn(3)], pickInt())
		case 1:
			rhs = ivl.TruncExpr{Bits: []uint{8, 16, 32}[rng.Intn(3)], X: pickInt()}
		case 2:
			rhs = ivl.SextExpr{Bits: []uint{8, 16, 32}[rng.Intn(3)], X: pickInt()}
		case 3:
			rhs = ivl.IteExpr{Cond: pickInt(), Then: pickInt(), Else: pickInt()}
		case 4:
			rhs = ivl.LoadExpr{Mem: pickMem(), Addr: pickInt(), W: widths[rng.Intn(4)]}
		case 5:
			rhs = ivl.StoreExpr{Mem: pickMem(), Addr: pickInt(), Val: pickInt(), W: widths[rng.Intn(4)]}
			dstType = ivl.Mem
		case 6:
			rhs = ivl.CallExpr{Sym: "call/2", Args: []ivl.Expr{pickInt(), pickInt()}}
		case 7:
			arg := pickInt()
			if len(memVars) > 0 {
				arg = pickMem()
			}
			rhs = ivl.CallExpr{Sym: "callmem/2", Args: []ivl.Expr{arg, pickInt()}}
			dstType = ivl.Mem
		case 8:
			// Memory (in)equality: an integer-valued comparison of memories.
			op := ivl.Eq
			if rng.Intn(2) == 0 {
				op = ivl.Ne
			}
			rhs = ivl.Bin(op, pickMem(), pickMem())
		case 9:
			// Memory-valued ite.
			rhs = ivl.IteExpr{Cond: pickInt(), Then: pickMem(), Else: pickMem()}
			dstType = ivl.Mem
		default:
			rhs = ivl.Bin(ops[rng.Intn(len(ops))], pickInt(), pickInt())
		}
		name := "t" + string(rune('0'+i%10)) + string(rune('a'+i/10))
		dst := ivl.Var{Name: name, Type: dstType}
		stmts = append(stmts, ivl.Assign(dst, rhs))
		if dstType == ivl.Mem {
			memVars = append(memVars, name)
		} else {
			intVars = append(intVars, name)
		}
	}
	return stmts, inputs
}

// bindKernel borrows a pooled kernel and binds it to prog. The pool
// hands a goroutine its last kernel back, so tests that cycle through
// programs this way also walk one kernel through every re-bind.
func bindKernel(prog *Program, k, g int) *Kernel {
	kn := AcquireKernel()
	kn.Bind(prog, k, g)
	return kn
}

// randomSlots returns a random (not necessarily injective) slot
// assignment, the way γ enumeration rebinds query inputs to target
// slots.
func randomSlots(rng *rand.Rand, n int) []int {
	slots := make([]int, n)
	for i := range slots {
		slots[i] = rng.Intn(n + 3)
	}
	return slots
}

// TestKernelMatchesScalar is the core differential guarantee: the
// batched SoA kernel must produce byte-identical fingerprints to the
// scalar reference interpreter, over random programs and many slot
// assignments per program (exercising the γ-loop reuse of one kernel:
// prefix preservation and arena reset).
func TestKernelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(4242))
	for trial := 0; trial < 200; trial++ {
		stmts, inputs := randomKernelStrand(rng, 2+rng.Intn(4), 5+rng.Intn(12))
		prog, err := CompileStrand(stmts, inputs)
		if err != nil {
			t.Fatalf("trial %d: well-typed program refused: %v", trial, err)
		}
		kern := bindKernel(prog, DefaultSamples, 1)
		for g := 0; g < 6; g++ {
			slots := randomSlots(rng, len(inputs))
			want := prog.Fingerprints(slots, DefaultSamples)
			got := kern.Fingerprints(slots)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("trial %d γ %d def %d (%s): batch %#x, scalar %#x",
						trial, g, d, stmts[d], got[d], want[d])
				}
			}
		}
		ReleaseKernel(kern)
	}
}

// TestKernelPrefixHoisting: constant-only chains must be hoisted into
// the γ-invariant prefix, and hoisting must not change fingerprints.
func TestKernelPrefixHoisting(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	stmts := []ivl.Stmt{
		// γ-invariant: constants only.
		ivl.Assign(iv("c1"), ivl.Bin(ivl.Mul, ivl.C(7), ivl.C(9))),
		ivl.Assign(iv("c2"), ivl.Bin(ivl.Add, ivl.IntVar("c1"), ivl.C(1))),
		// γ-dependent: touches an input.
		ivl.Assign(iv("d1"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.IntVar("c2"))),
		// γ-invariant again: depends only on constants.
		ivl.Assign(iv("c3"), ivl.Un(ivl.Not, ivl.IntVar("c1"))),
	}
	inputs := []ivl.Var{iv("x")}
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	prefix, total := prog.InstrCounts()
	if prefix == 0 || prefix >= total {
		t.Fatalf("prefix/total = %d/%d, want a proper split", prefix, total)
	}
	kern := bindKernel(prog, DefaultSamples, 1)
	defer ReleaseKernel(kern)
	for _, slots := range [][]int{{0}, {1}, {2}} {
		want := prog.Fingerprints(slots, DefaultSamples)
		got := kern.Fingerprints(slots)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("slots %v def %d: batch %#x scalar %#x", slots, d, got[d], want[d])
			}
		}
	}
}

// TestKernelGammaLoopAllocFree: after warm-up, re-running the kernel
// under fresh slot assignments must not allocate — the acceptance bar
// for the γ loop.
func TestKernelGammaLoopAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	stmts, inputs := randomKernelStrand(rng, 3, 14)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	kern := bindKernel(prog, DefaultSamples, 1)
	defer ReleaseKernel(kern)
	slotSets := [][]int{}
	for i := 0; i < 4; i++ {
		slotSets = append(slotSets, randomSlots(rng, len(inputs)))
	}
	for _, s := range slotSets { // warm up lane buffers and the arena
		kern.Fingerprints(s)
	}
	i := 0
	allocs := testing.AllocsPerRun(50, func() {
		kern.Fingerprints(slotSets[i%len(slotSets)])
		i++
	})
	if allocs != 0 {
		t.Fatalf("γ-loop Fingerprints allocates %.1f objects per run, want 0", allocs)
	}
}

// TestKernelPoolReuse: acquire/bind/release cycles must keep results
// stable (the pooled kernel keeps its buffers, and nothing else).
func TestKernelPoolReuse(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	stmts, inputs := randomKernelStrand(rng, 3, 10)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	slots := randomSlots(rng, len(inputs))
	want := prog.Fingerprints(slots, DefaultSamples)
	for i := 0; i < 5; i++ {
		kern := bindKernel(prog, DefaultSamples, 1)
		got := kern.Fingerprints(slots)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("cycle %d def %d: batch %#x scalar %#x", i, d, got[d], want[d])
			}
		}
		ReleaseKernel(kern)
	}
}

// TestKernelSampleCountChange: a kernel re-bound with a different sample
// count must resize correctly — on both sides of the all-same block's end
// — and its second run, whose memory slot the first already bound, must
// read the cached block right.
func TestKernelSampleCountChange(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	stmts, inputs := randomKernelStrand(rng, 2, 8)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	first := randomSlots(rng, len(inputs))
	second := randomSlots(rng, len(inputs))
	second[len(second)-1] = first[len(first)-1] // same memory slot, other integers
	kern := AcquireKernel()
	defer ReleaseKernel(kern)
	for _, k := range append(slices.Clone(kernelSampleCounts), 7, 40, 3) {
		kern.Bind(prog, k, 1)
		for _, slots := range [][]int{first, second} {
			want := prog.Fingerprints(slots, k)
			got := kern.Fingerprints(slots)
			for d := range want {
				if got[d] != want[d] {
					t.Fatalf("k=%d slots %v def %d: batch %#x scalar %#x", k, slots, d, got[d], want[d])
				}
			}
		}
	}
}

// TestKernelMemorySlotTuples holds the cached all-same block to the
// scalar reference over strands with 0, 1 and 2 memory inputs, at every
// kernelSampleCounts count and several widths: one binding runs batch
// after batch, each drawing its memory slots from a set that grows run by
// run, so a batch mixes tuples the binding has met with new ones (and a
// new one twice). Both fold forms must match the reference, and the lanes
// the kernel executes must be exactly all k for a row whose tuple is new
// to the binding and k − min(k, allSameSpecials) for one it has met.
func TestKernelMemorySlotTuples(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	mixed := 0
	for _, nMem := range []int{0, 1, 2} {
		for _, k := range kernelSampleCounts {
			iv := min(k, allSameSpecials)
			for trial := 0; trial < 4; trial++ {
				stmts, inputs := randomMemStrand(rng, 1+rng.Intn(3), nMem, 4+rng.Intn(14))
				prog, err := CompileStrand(stmts, inputs)
				if err != nil {
					t.Fatalf("well-typed program refused: %v", err)
				}
				prefix, total := prog.InstrCounts()
				for _, g := range []int{1, 3, 8} {
					kern := bindKernel(prog, k, g)
					seen := map[string]bool{}
					for run := 0; run < 5; run++ {
						rows := 1 + rng.Intn(g)
						staged := make([][]int, rows)
						lanes, news := 0, 0
						for r := range staged {
							slots := randomSlots(rng, len(inputs))
							var key []int
							for i, in := range inputs {
								if in.Type == ivl.Mem {
									slots[i] = rng.Intn(1 + run)
									key = append(key, slots[i])
								}
							}
							if mu := fmt.Sprint(key); seen[mu] {
								lanes += k - iv
							} else {
								seen[mu] = true
								lanes += k
								news++
							}
							staged[r] = slots
							kern.BindRow(r, slots)
						}
						if news > 0 && news < rows {
							mixed++
						}
						what := fmt.Sprintf("nMem=%d k=%d trial %d g=%d run %d", nMem, k, trial, g, run)
						before := kern.LanesExecuted()
						fps := kern.FingerprintsRows(rows)
						if got, want := kern.LanesExecuted()-before, uint64((total-prefix)*lanes); got != want {
							t.Fatalf("%s: %d lanes executed, want %d", what, got, want)
						}
						nd := len(fps) / rows
						wants := make([][]uint64, rows)
						for r := range staged {
							wants[r] = prog.Fingerprints(staged[r], k)
							for d, w := range wants[r] {
								if fps[r*nd+d] != w {
									t.Fatalf("%s row %d def %d: batch %#x scalar %#x", what, r, d, fps[r*nd+d], w)
								}
							}
						}
						before = kern.LanesExecuted()
						vfps := kern.VaryingRows(rows)
						if got, want := kern.LanesExecuted()-before, uint64((total-prefix)*lanes); got != want {
							t.Fatalf("%s: varying form executed %d lanes, want %d", what, got, want)
						}
						nv := len(prog.Varying())
						for r := range staged {
							for i, c := range prog.Varying() {
								if vfps[r*nv+i] != wants[r][c.Def] {
									t.Fatalf("%s row %d varying %d: batch %#x scalar %#x", what, r, i, vfps[r*nv+i], wants[r][c.Def])
								}
							}
						}
					}
					ReleaseKernel(kern)
				}
			}
		}
	}
	if mixed == 0 {
		t.Fatal("no batch mixed met and new memory-slot tuples")
	}
}

// TestKernelRejectsIllTyped: a program whose static typing cannot
// describe its semantics is refused at compile time, with an error naming
// the statement (index and destination) and the reason — the batched
// kernel is the only evaluator, so there is nothing to fall back to.
func TestKernelRejectsIllTyped(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	mem := ivl.VarExpr{V: ivl.Var{Name: "m", Type: ivl.Mem}}
	inputs := []ivl.Var{{Name: "m", Type: ivl.Mem}, iv("x")}
	ok := ivl.Assign(iv("y"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.C(1)))
	cases := []struct {
		s      ivl.Stmt
		reason string
	}{
		// ite mixing a memory and an integer branch
		{ivl.Assign(iv("d"), ivl.IteExpr{Cond: ivl.IntVar("x"), Then: mem, Else: ivl.IntVar("x")}), "ite branches"},
		// unary operator over a memory value
		{ivl.Assign(iv("d"), ivl.Un(ivl.Not, mem)), "over a memory"},
		// load with a memory-typed address
		{ivl.Assign(iv("d"), ivl.LoadExpr{Mem: mem, Addr: mem, W: 8}), "as an address"},
		// a statement declared integer whose value is a memory
		{ivl.Assign(iv("d"), mem), "declared bv64 but holds a mem"},
		// and the converse
		{ivl.Assign(ivl.Var{Name: "d", Type: ivl.Mem}, ivl.IntVar("y")), "declared mem but holds a bv64"},
	}
	for i, c := range cases {
		_, err := CompileStrand([]ivl.Stmt{ok, c.s}, inputs)
		if err == nil {
			t.Errorf("case %d (%s): ill-typed program compiled", i, c.s)
			continue
		}
		if msg := err.Error(); !strings.Contains(msg, "statement 1 (d)") || !strings.Contains(msg, c.reason) {
			t.Errorf("case %d (%s): error %q does not name statement 1 (d) and %q", i, c.s, msg, c.reason)
		}
	}
}

// FuzzKernel cross-checks the batched kernel against the scalar
// reference on fuzzer-chosen programs and slot assignments: the data
// seeds a deterministic random program generator, so every corpus entry
// is a reproducible program.
func FuzzKernel(f *testing.F) {
	f.Add(uint64(1), uint64(2))
	f.Add(uint64(0xDEADBEEF), uint64(42))
	f.Add(uint64(1<<40), uint64(0))
	f.Add(binary.LittleEndian.Uint64([]byte("kernelfz")), uint64(7))
	f.Fuzz(func(t *testing.T, progSeed, slotSeed uint64) {
		for _, k := range kernelSampleCounts {
			fuzzKernelAt(t, progSeed, slotSeed, k)
		}
	})
}

// fuzzKernelAt is one FuzzKernel input at sample count k.
func fuzzKernelAt(t *testing.T, progSeed, slotSeed uint64, k int) {
	rng := rand.New(rand.NewSource(int64(progSeed)))
	stmts, inputs := randomMemStrand(rng, 1+rng.Intn(5), int(progSeed%3), 1+rng.Intn(20))
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatalf("generated well-typed program refused: %v", err)
	}
	srng := rand.New(rand.NewSource(int64(slotSeed)))
	kern := bindKernel(prog, k, 1)
	defer ReleaseKernel(kern)
	for g := 0; g < 3; g++ {
		slots := randomSlots(srng, len(inputs))
		want := prog.Fingerprints(slots, k)
		got := kern.Fingerprints(slots)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("def %d: batch %#x scalar %#x (progSeed=%d slotSeed=%d k=%d γ=%d)",
					d, got[d], want[d], progSeed, slotSeed, k, g)
			}
		}
	}
	// γ-batched rows: a partial batch through one kernel run must match
	// the scalar reference per row — and so must a second batch that
	// keeps each row's memory slots and redraws the rest, whose rows read
	// the all-same block the first batch cached.
	width := 2 + int(progSeed%7)
	bkern := bindKernel(prog, k, width)
	defer ReleaseKernel(bkern)
	rows := 1 + int(slotSeed%uint64(width))
	staged := make([][]int, rows)
	for flush := 0; flush < 2; flush++ {
		for r := 0; r < rows; r++ {
			slots := randomSlots(srng, len(inputs))
			for i, in := range inputs {
				if flush > 0 && in.Type == ivl.Mem {
					slots[i] = staged[r][i]
				}
			}
			staged[r] = slots
			bkern.BindRow(r, staged[r])
		}
		fps := bkern.FingerprintsRows(rows)
		nd := len(fps) / rows
		for r := 0; r < rows; r++ {
			want := prog.Fingerprints(staged[r], k)
			for d := range want {
				if fps[r*nd+d] != want[d] {
					t.Fatalf("flush %d row %d def %d: batch %#x scalar %#x (progSeed=%d slotSeed=%d k=%d width=%d)",
						flush, r, d, fps[r*nd+d], want[d], progSeed, slotSeed, k, width)
				}
			}
		}
	}
	// Re-bind: the same batched kernel, still holding the first
	// program's lanes, arena, interned roots and slot bindings, moves
	// to an unrelated program at another width and then back. Both
	// forms — per definition and reduced to what varies — must match
	// the scalar reference as if the kernel were new.
	other, otherIn := randomKernelStrand(srng, 1+srng.Intn(5), 1+srng.Intn(20))
	oprog, err := CompileStrand(other, otherIn)
	if err != nil {
		t.Fatalf("generated program failed to compile: %v", err)
	}
	for _, step := range []struct {
		p *Program
		g int
	}{{oprog, 1 + int(slotSeed%5)}, {prog, width}} {
		bkern.Bind(step.p, k, step.g)
		slots := randomSlots(srng, len(step.p.Inputs))
		want := step.p.Fingerprints(slots, k)
		bkern.BindRow(0, slots)
		got := bkern.FingerprintsRows(1)
		for d := range want {
			if got[d] != want[d] {
				t.Fatalf("after re-bind, def %d: batch %#x scalar %#x (progSeed=%d slotSeed=%d)",
					d, got[d], want[d], progSeed, slotSeed)
			}
		}
		got = bkern.VaryingRows(1)
		for i, c := range step.p.Varying() {
			if got[i] != want[c.Def] {
				t.Fatalf("after re-bind, varying %d (def %d): batch %#x scalar %#x (progSeed=%d slotSeed=%d)",
					i, c.Def, got[i], want[c.Def], progSeed, slotSeed)
			}
		}
	}
}
