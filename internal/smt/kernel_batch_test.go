package smt

import (
	"math/rand"
	"testing"

	"repro/internal/ivl"
)

// TestKernelRowsMatchScalar: FingerprintsRows over every batch
// width and fill level must reproduce the scalar reference per row —
// including partial final batches (rows < g), interleaved with full
// ones, over programs that exercise memory, calls, and every operator.
func TestKernelRowsMatchScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(515151))
	for trial := 0; trial < 80; trial++ {
		stmts, inputs := randomKernelStrand(rng, 2+rng.Intn(4), 5+rng.Intn(12))
		prog, err := CompileStrand(stmts, inputs)
		if err != nil {
			t.Fatalf("trial %d: well-typed program refused: %v", trial, err)
		}
		for _, g := range []int{1, 2, 3, 8, 16} {
			kern := bindKernel(prog, DefaultSamples, g)
			if kern.g != g {
				t.Fatalf("bound width = %d, want %d", kern.g, g)
			}
			// Several flushes per kernel: full batches, then a partial
			// one, exercising prefix reuse and the delta input refill
			// across flushes.
			for flush := 0; flush < 3; flush++ {
				rows := 1 + rng.Intn(g)
				if flush == 0 {
					rows = g // at least one full batch per width
				}
				staged := make([][]int, rows)
				for r := 0; r < rows; r++ {
					staged[r] = randomSlots(rng, len(inputs))
					kern.BindRow(r, staged[r])
				}
				fps := kern.FingerprintsRows(rows)
				nd := len(fps) / rows
				for r := 0; r < rows; r++ {
					want := prog.Fingerprints(staged[r], DefaultSamples)
					for d := range want {
						if fps[r*nd+d] != want[d] {
							t.Fatalf("trial %d g=%d flush %d row %d def %d: batch %#x scalar %#x",
								trial, g, flush, r, d, fps[r*nd+d], want[d])
						}
					}
				}
			}
			ReleaseKernel(kern)
		}
	}
}

// TestKernelBatchDeltaRefill: consecutive batches whose rows share slot
// bindings with the previous batch at the same row index (the common
// case in DFS γ enumeration) must still evaluate exactly — the
// lastSlot-keyed refill skip must never leave a stale lane visible.
func TestKernelBatchDeltaRefill(t *testing.T) {
	rng := rand.New(rand.NewSource(616161))
	stmts, inputs := randomKernelStrand(rng, 4, 12)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	const g = 4
	kern := bindKernel(prog, DefaultSamples, g)
	defer ReleaseKernel(kern)
	base := randomSlots(rng, len(inputs))
	for flush := 0; flush < 10; flush++ {
		staged := make([][]int, g)
		for r := 0; r < g; r++ {
			// Mutate at most one position of the shared base assignment,
			// so most (row, input) bindings repeat across flushes.
			row := append([]int(nil), base...)
			if rng.Intn(3) > 0 {
				row[rng.Intn(len(row))] = rng.Intn(len(inputs) + 2)
			}
			staged[r] = row
			kern.BindRow(r, row)
		}
		fps := kern.FingerprintsRows(g)
		nd := len(fps) / g
		for r := 0; r < g; r++ {
			want := prog.Fingerprints(staged[r], DefaultSamples)
			for d := range want {
				if fps[r*nd+d] != want[d] {
					t.Fatalf("flush %d row %d def %d: batch %#x scalar %#x",
						flush, r, d, fps[r*nd+d], want[d])
				}
			}
		}
	}
}

// TestKernelBatchReshape: one kernel re-bound with different (samples,
// width) shapes must resize and re-evaluate its prefix correctly each
// time.
func TestKernelBatchReshape(t *testing.T) {
	rng := rand.New(rand.NewSource(717171))
	stmts, inputs := randomKernelStrand(rng, 3, 10)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	shapes := []struct{ k, g int }{
		{DefaultSamples, 1}, {DefaultSamples, 8}, {7, 8}, {7, 2},
		{DefaultSamples, 16}, {DefaultSamples, 1},
	}
	for _, sh := range shapes {
		kern := bindKernel(prog, sh.k, sh.g)
		rows := 1 + rng.Intn(sh.g)
		staged := make([][]int, rows)
		for r := range staged {
			staged[r] = randomSlots(rng, len(inputs))
			kern.BindRow(r, staged[r])
		}
		fps := kern.FingerprintsRows(rows)
		nd := len(fps) / rows
		for r := 0; r < rows; r++ {
			want := prog.Fingerprints(staged[r], sh.k)
			for d := range want {
				if fps[r*nd+d] != want[d] {
					t.Fatalf("shape k=%d g=%d row %d def %d: batch %#x scalar %#x",
						sh.k, sh.g, r, d, fps[r*nd+d], want[d])
				}
			}
		}
		ReleaseKernel(kern)
	}
}

// TestKernelBatchAllocFree: the steady-state batched γ loop — bind G
// rows, flush, extract fingerprints — must not allocate.
func TestKernelBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(818181))
	stmts, inputs := randomKernelStrand(rng, 3, 14)
	prog, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	const g = 8
	kern := bindKernel(prog, DefaultSamples, g)
	defer ReleaseKernel(kern)
	slotSets := make([][]int, g)
	for r := range slotSets {
		slotSets[r] = randomSlots(rng, len(inputs))
	}
	run := func() {
		for r := 0; r < g; r++ {
			kern.BindRow(r, slotSets[(r+1)%g])
		}
		kern.FingerprintsRows(g)
	}
	run() // warm up lane buffers and the arena
	run()
	allocs := testing.AllocsPerRun(50, run)
	if allocs != 0 {
		t.Fatalf("batched γ loop allocates %.1f objects per flush, want 0", allocs)
	}
}

// TestVaryingRowsMatchPerDefinition pins the reduced fingerprint form to
// the per-definition one: Varying and ConstDefs together account for
// every definition exactly once, VaryingRows reports — at every width and
// fill level — the scalar reference's fingerprint of each class's first
// definition, every other definition of the class has that fingerprint
// too, and a γ-invariant definition's fingerprint does not move with the
// assignment. The first program is hand-built around the two shapes
// random programs rarely produce: copies (several definitions in one
// register, one of them an input's) and constant-only definitions.
func TestVaryingRowsMatchPerDefinition(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	type strandCase struct {
		stmts  []ivl.Stmt
		inputs []ivl.Var
	}
	cases := []strandCase{{
		stmts: []ivl.Stmt{
			ivl.Assign(iv("c1"), ivl.Bin(ivl.Mul, ivl.C(7), ivl.C(9))),
			ivl.Assign(iv("d1"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.IntVar("c1"))),
			ivl.Assign(iv("d2"), ivl.IntVar("d1")), // copy of a definition
			ivl.Assign(iv("d3"), ivl.IntVar("y")),  // copy of an input
			ivl.Assign(iv("d4"), ivl.IntVar("d2")),
			ivl.Assign(iv("c2"), ivl.IntVar("c1")), // copy of a constant
			ivl.Assign(iv("d5"), ivl.Bin(ivl.Xor, ivl.IntVar("d3"), ivl.IntVar("d4"))),
		},
		inputs: []ivl.Var{iv("x"), iv("y")},
	}}
	rng := rand.New(rand.NewSource(212121))
	for i := 0; i < 60; i++ {
		stmts, inputs := randomKernelStrand(rng, 1+rng.Intn(4), 4+rng.Intn(14))
		cases = append(cases, strandCase{stmts, inputs})
	}
	for ci, c := range cases {
		prog, err := CompileStrand(c.stmts, c.inputs)
		if err != nil {
			t.Fatal(err)
		}
		classes, consts := prog.Varying(), prog.ConstDefs()
		covered := len(consts)
		for _, cl := range classes {
			covered += cl.Mult
		}
		if covered != len(c.stmts) {
			t.Fatalf("case %d: Σ mult + consts = %d, want %d definitions", ci, covered, len(c.stmts))
		}
		if ci == 0 && (len(classes) != 3 || classes[0].Mult != 3 || classes[1].Mult != 1 || len(consts) != 2) {
			t.Fatalf("hand-built case: classes %+v consts %v, want mults 3,1,1 and 2 constants", classes, consts)
		}
		var constWant []uint64
		for _, g := range []int{1, 3, 8} {
			kern := bindKernel(prog, DefaultSamples, g)
			for flush := 0; flush < 2; flush++ {
				rows := 1 + rng.Intn(g)
				staged := make([][]int, rows)
				for r := range staged {
					staged[r] = randomSlots(rng, len(c.inputs))
					kern.BindRow(r, staged[r])
				}
				got := kern.VaryingRows(rows)
				if len(got) != rows*len(classes) {
					t.Fatalf("case %d g=%d: %d reduced fingerprints for %d rows × %d classes", ci, g, len(got), rows, len(classes))
				}
				for r := range staged {
					want := prog.Fingerprints(staged[r], DefaultSamples)
					for i, cl := range classes {
						if got[r*len(classes)+i] != want[cl.Def] {
							t.Fatalf("case %d g=%d row %d class %d: reduced %#x, scalar def %d %#x",
								ci, g, r, i, got[r*len(classes)+i], cl.Def, want[cl.Def])
						}
						same := 0
						for d := cl.Def; d < len(want); d++ {
							if want[d] == want[cl.Def] {
								same++
							}
						}
						if same < cl.Mult {
							t.Fatalf("case %d class %d: %d definitions carry its fingerprint, multiplicity says %d", ci, i, same, cl.Mult)
						}
					}
					if constWant == nil {
						for _, d := range consts {
							constWant = append(constWant, want[d])
						}
					}
					for j, d := range consts {
						if want[d] != constWant[j] {
							t.Fatalf("case %d: γ-invariant def %d moved with the assignment", ci, d)
						}
					}
				}
			}
			ReleaseKernel(kern)
		}
	}
}
