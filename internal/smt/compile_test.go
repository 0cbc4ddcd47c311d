package smt

import (
	"math/rand"
	"testing"

	"repro/internal/ivl"
)

// randomStrand builds a random SSA assignment list over nIn inputs,
// optionally with memory operations.
func randomStrand(rng *rand.Rand, nIn, nStmts int, withMem bool) ([]ivl.Stmt, []ivl.Var) {
	var inputs []ivl.Var
	var intVars []string
	for i := 0; i < nIn; i++ {
		v := ivl.Var{Name: "in" + string(rune('a'+i)), Type: ivl.Int}
		inputs = append(inputs, v)
		intVars = append(intVars, v.Name)
	}
	memName := ""
	if withMem {
		inputs = append(inputs, ivl.Var{Name: "mem", Type: ivl.Mem})
		memName = "mem"
	}
	ops := []ivl.BinOp{ivl.Add, ivl.Sub, ivl.Mul, ivl.And, ivl.Or, ivl.Xor,
		ivl.Shl, ivl.LShr, ivl.AShr, ivl.Eq, ivl.SLt, ivl.ULe, ivl.SDiv, ivl.SRem}
	var stmts []ivl.Stmt
	pickInt := func() ivl.Expr {
		if rng.Intn(4) == 0 {
			return ivl.C(rng.Uint64() >> uint(rng.Intn(56)))
		}
		return ivl.IntVar(intVars[rng.Intn(len(intVars))])
	}
	for i := 0; i < nStmts; i++ {
		var rhs ivl.Expr
		switch rng.Intn(8) {
		case 0:
			rhs = ivl.Un([]ivl.UnOp{ivl.Not, ivl.Neg, ivl.BoolNot}[rng.Intn(3)], pickInt())
		case 1:
			rhs = ivl.TruncExpr{Bits: []uint{8, 16, 32}[rng.Intn(3)], X: pickInt()}
		case 2:
			rhs = ivl.SextExpr{Bits: []uint{8, 16, 32}[rng.Intn(3)], X: pickInt()}
		case 3:
			rhs = ivl.IteExpr{Cond: pickInt(), Then: pickInt(), Else: pickInt()}
		case 4:
			if memName != "" {
				rhs = ivl.LoadExpr{Mem: ivl.VarExpr{V: ivl.Var{Name: memName, Type: ivl.Mem}},
					Addr: pickInt(), W: []uint{1, 2, 4, 8}[rng.Intn(4)]}
				break
			}
			fallthrough
		case 5:
			rhs = ivl.CallExpr{Sym: "call/2", Args: []ivl.Expr{pickInt(), pickInt()}}
		default:
			rhs = ivl.Bin(ops[rng.Intn(len(ops))], pickInt(), pickInt())
		}
		dst := ivl.Var{Name: "t" + string(rune('0'+i%10)) + string(rune('a'+i/10)), Type: ivl.Int}
		stmts = append(stmts, ivl.Assign(dst, rhs))
		intVars = append(intVars, dst.Name)
	}
	return stmts, inputs
}

// TestCompiledMatchesInterpreted: Program.Fingerprints must agree with the
// tree-walking VectorHashes on random strands — the compiled evaluator is
// the hot path and must be a faithful drop-in.
func TestCompiledMatchesInterpreted(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	for trial := 0; trial < 300; trial++ {
		withMem := trial%3 == 0
		stmts, inputs := randomStrand(rng, 2+rng.Intn(3), 4+rng.Intn(8), withMem)

		slotOf := map[string]int{}
		for i, in := range inputs {
			slotOf[in.Name] = i
		}
		want, err := VectorHashes(stmts, inputs, func(s int, v ivl.Var) ivl.Value {
			return SlotValue(s, slotOf[v.Name], v.Type)
		}, DefaultSamples)
		if err != nil {
			t.Fatal(err)
		}

		prog, err := CompileStrand(stmts, inputs)
		if err != nil {
			t.Fatal(err)
		}
		identity := make([]int, len(inputs))
		for i := range identity {
			identity[i] = i
		}
		got := prog.Fingerprints(identity, DefaultSamples)
		if len(got) != len(stmts) {
			t.Fatalf("fingerprint count %d, want %d", len(got), len(stmts))
		}
		for i, st := range stmts {
			if got[i] != want[st.Dst.Name] {
				t.Fatalf("trial %d stmt %d (%s): compiled %#x, interpreted %#x",
					trial, i, st, got[i], want[st.Dst.Name])
			}
		}
	}
}

// TestCompiledSlotPermutation: permuting input slots must permute values
// consistently — a strand evaluated under swapped slots equals the strand
// with textually swapped inputs.
func TestCompiledSlotPermutation(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	stmts := []ivl.Stmt{
		ivl.Assign(iv("d"), ivl.Bin(ivl.Sub, ivl.IntVar("a"), ivl.IntVar("b"))),
	}
	swapped := []ivl.Stmt{
		ivl.Assign(iv("d"), ivl.Bin(ivl.Sub, ivl.IntVar("b"), ivl.IntVar("a"))),
	}
	inputs := []ivl.Var{iv("a"), iv("b")}
	p1, err := CompileStrand(stmts, inputs)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := CompileStrand(swapped, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// a-b with slots (1,0) == b-a with slots (0,1).
	got1 := p1.Fingerprints([]int{1, 0}, DefaultSamples)
	got2 := p2.Fingerprints([]int{0, 1}, DefaultSamples)
	if got1[0] != got2[0] {
		t.Error("slot permutation inconsistent with operand swap")
	}
	// And they differ from the identity assignment (a-b is not b-a).
	id := p1.Fingerprints([]int{0, 1}, DefaultSamples)
	if id[0] == got1[0] {
		t.Error("distinct assignments collided")
	}
}

func TestCompileStrandErrors(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	// Unbound variable.
	if _, err := CompileStrand([]ivl.Stmt{
		ivl.Assign(iv("d"), ivl.IntVar("ghost")),
	}, nil); err == nil {
		t.Error("unbound variable not rejected")
	}
}
