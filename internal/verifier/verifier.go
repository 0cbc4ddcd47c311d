// Package verifier provides the Solve procedure the paper assumes: given
// a straight-line assume/assert program (two strands joined with a shared
// assumption prefix over their inputs), decide which assertions hold
// under all inputs satisfying the assumptions.
//
// Solve replaces the Boogie/Z3 stack, which has no Go bindings. It
// combines two engines:
//
//  1. a sound prover: each asserted equality is discharged by substituting
//     the SSA definitions into both sides and comparing canonical forms
//     (package smt's normalizer);
//  2. a randomized refuter: the program is evaluated over package smt's
//     structured sample battery, with assumption-equated inputs sharing
//     sample slots; an equality that fails any sample is definitively
//     false, and one that holds on every sample but is not proved is
//     accepted with negligible error probability.
//
// The verdict surface matches the paper's Solve: assertion → {true,false}.
package verifier

import (
	"fmt"
	"strconv"

	"repro/internal/ivl"
	"repro/internal/smt"
)

// Query is a joint verification program in the shape Algorithm 2 builds:
// input-equality assumptions, then the two strands' bodies, then equality
// assertions.
type Query struct {
	Inputs []ivl.Var  // union of both strands' inputs (unbound variables)
	Stmts  []ivl.Stmt // assumes, assignments, asserts in program order
}

// Result reports, per assert statement (in order of appearance), whether
// the asserted condition holds for all inputs satisfying the assumptions.
// Proven marks assertions discharged by the sound canonicalization engine
// (the rest were accepted by exhaustive sample agreement).
type Result struct {
	Holds  []bool
	Proven []bool
}

// maxSubstSize bounds symbolic substitution; larger terms fall back to
// the sampling engine.
const maxSubstSize = 4000

// Solve decides the query's assertions. samples <= 0 selects
// smt.DefaultSamples.
func Solve(q Query, samples int) (Result, error) {
	if samples <= 0 {
		samples = smt.DefaultSamples
	}

	inputSet := make(map[string]ivl.Var, len(q.Inputs))
	for _, v := range q.Inputs {
		inputSet[v.Name] = v
	}

	// Union-find over inputs for assumption classes.
	parent := map[string]string{}
	var find func(string) string
	find = func(x string) string {
		p, ok := parent[x]
		if !ok || p == x {
			return x
		}
		r := find(p)
		parent[x] = r
		return r
	}
	union := func(a, b string) { parent[find(a)] = find(b) }

	var asserts []ivl.Stmt
	var assigns []ivl.Stmt
	for _, s := range q.Stmts {
		switch s.Kind {
		case ivl.SAssume:
			eq, ok := s.Rhs.(ivl.BinExpr)
			if !ok || eq.Op != ivl.Eq {
				return Result{}, fmt.Errorf("verifier: unsupported assumption %v", s.Rhs)
			}
			xv, okx := eq.X.(ivl.VarExpr)
			yv, oky := eq.Y.(ivl.VarExpr)
			if !okx || !oky {
				return Result{}, fmt.Errorf("verifier: assumption must equate variables: %v", s.Rhs)
			}
			if _, isIn := inputSet[xv.V.Name]; !isIn {
				return Result{}, fmt.Errorf("verifier: assumption over non-input %q", xv.V.Name)
			}
			if _, isIn := inputSet[yv.V.Name]; !isIn {
				return Result{}, fmt.Errorf("verifier: assumption over non-input %q", yv.V.Name)
			}
			union(xv.V.Name, yv.V.Name)
		case ivl.SAssign:
			assigns = append(assigns, s)
		case ivl.SAssert:
			asserts = append(asserts, s)
		}
	}

	// Assign each input class a slot. Deterministic: slots in input order.
	slot := map[string]int{}
	next := 0
	for _, v := range q.Inputs {
		r := find(v.Name)
		if _, ok := slot[r]; !ok {
			slot[r] = next
			next++
		}
	}

	// Engine 1: symbolic substitution + canonicalization.
	symb := map[string]ivl.Expr{}
	for _, v := range q.Inputs {
		symb[v.Name] = ivl.VarExpr{V: ivl.Var{Name: fmt.Sprintf("slot%d", slot[find(v.Name)]), Type: v.Type}}
	}
	substOK := map[string]bool{}
	for _, v := range q.Inputs {
		substOK[v.Name] = true
	}
	for _, s := range assigns {
		ok := true
		e := substitute(s.Rhs, symb, &ok)
		if ok && ivl.Size(e) <= maxSubstSize {
			symb[s.Dst.Name] = smt.Normalize(e)
			substOK[s.Dst.Name] = true
		} else {
			substOK[s.Dst.Name] = false
		}
	}

	res := Result{
		Holds:  make([]bool, len(asserts)),
		Proven: make([]bool, len(asserts)),
	}
	for i, a := range asserts {
		eq, ok := a.Rhs.(ivl.BinExpr)
		if !ok || eq.Op != ivl.Eq {
			continue
		}
		xv, okx := eq.X.(ivl.VarExpr)
		yv, oky := eq.Y.(ivl.VarExpr)
		if okx && oky && substOK[xv.V.Name] && substOK[yv.V.Name] {
			if symb[xv.V.Name].String() == symb[yv.V.Name].String() {
				res.Holds[i] = true
				res.Proven[i] = true
			}
		}
	}

	// Engine 2: sample evaluation for everything not yet proven.
	pendingAny := false
	for i := range asserts {
		if !res.Proven[i] {
			pendingAny = true
		}
	}
	if !pendingAny {
		return res, nil
	}

	slots := make([]int, len(q.Inputs))
	for i, v := range q.Inputs {
		slots[i] = slot[find(v.Name)]
	}
	holdsAll, ok := sampleKernel(q.Inputs, slots, assigns, asserts, samples)
	if !ok {
		var err error
		holdsAll, err = sampleScalar(q.Inputs, slots, assigns, asserts, samples)
		if err != nil {
			return Result{}, err
		}
	}
	for i := range asserts {
		if !res.Proven[i] {
			res.Holds[i] = holdsAll[i]
		}
	}
	return res, nil
}

// assertDefName names the synthetic SSA definition holding assert i's
// condition in the kernel path. The NUL byte keeps it disjoint from any
// variable a lifted strand can contain.
func assertDefName(i int) string { return "\x00assert" + strconv.Itoa(i) }

// sampleKernel evaluates the assertion conditions over the sample
// battery through the compiled batched kernel: the assignments plus one
// synthetic definition per assert compile to one Program, one Run binds
// every input to its assumption-class slot, and assert i holds iff its
// definition's lane vector is nonzero in every sample. Returns ok=false
// — caller falls back to the scalar tree-walker — when the program does
// not compile or the kernel's static typing rejects it, so ill-typed
// queries keep their scalar error behavior.
func sampleKernel(inputs []ivl.Var, slots []int, assigns, asserts []ivl.Stmt, samples int) ([]bool, bool) {
	stmts := make([]ivl.Stmt, 0, len(assigns)+len(asserts))
	stmts = append(stmts, assigns...)
	for i, a := range asserts {
		stmts = append(stmts, ivl.Assign(ivl.Var{Name: assertDefName(i), Type: ivl.Int}, a.Rhs))
	}
	prog, err := smt.CompileStrand(stmts, inputs)
	if err != nil || !prog.BatchOK() {
		return nil, false
	}
	kern := smt.AcquireKernel()
	defer smt.ReleaseKernel(kern)
	kern.Bind(prog, samples, 1)
	kern.Run(slots)
	holds := make([]bool, len(asserts))
	base := len(assigns)
	for i := range asserts {
		holds[i] = true
		for _, bits := range kern.DefBits(base + i) {
			if bits == 0 {
				holds[i] = false
				break
			}
		}
	}
	return holds, true
}

// sampleScalar is the reference sampling engine: one tree-walking
// evaluation pass per sample. Kept as the fallback for programs the
// kernel cannot serve and as the differential oracle for sampleKernel.
func sampleScalar(inputs []ivl.Var, slots []int, assigns, asserts []ivl.Stmt, samples int) ([]bool, error) {
	holdsAll := make([]bool, len(asserts))
	for i := range holdsAll {
		holdsAll[i] = true
	}
	for k := 0; k < samples; k++ {
		env := ivl.Env{}
		for i, v := range inputs {
			env[v.Name] = smt.SlotValue(k, slots[i], v.Type)
		}
		for _, s := range assigns {
			val, err := ivl.Eval(s.Rhs, env)
			if err != nil {
				return nil, err
			}
			env[s.Dst.Name] = val
		}
		for i, a := range asserts {
			v, err := ivl.Eval(a.Rhs, env)
			if err != nil {
				return nil, err
			}
			if v.Bits == 0 {
				holdsAll[i] = false
			}
		}
	}
	return holdsAll, nil
}

// substitute replaces variables by their symbolic definitions. ok is
// cleared when a referenced variable has no usable definition.
func substitute(e ivl.Expr, defs map[string]ivl.Expr, ok *bool) ivl.Expr {
	switch t := e.(type) {
	case ivl.VarExpr:
		d, has := defs[t.V.Name]
		if !has {
			*ok = false
			return e
		}
		return d
	case ivl.ConstExpr:
		return t
	case ivl.UnExpr:
		return ivl.UnExpr{Op: t.Op, X: substitute(t.X, defs, ok)}
	case ivl.BinExpr:
		return ivl.BinExpr{Op: t.Op, X: substitute(t.X, defs, ok), Y: substitute(t.Y, defs, ok)}
	case ivl.IteExpr:
		return ivl.IteExpr{
			Cond: substitute(t.Cond, defs, ok),
			Then: substitute(t.Then, defs, ok),
			Else: substitute(t.Else, defs, ok),
		}
	case ivl.TruncExpr:
		return ivl.TruncExpr{Bits: t.Bits, X: substitute(t.X, defs, ok)}
	case ivl.SextExpr:
		return ivl.SextExpr{Bits: t.Bits, X: substitute(t.X, defs, ok)}
	case ivl.LoadExpr:
		return ivl.LoadExpr{Mem: substitute(t.Mem, defs, ok), Addr: substitute(t.Addr, defs, ok), W: t.W}
	case ivl.StoreExpr:
		return ivl.StoreExpr{
			Mem:  substitute(t.Mem, defs, ok),
			Addr: substitute(t.Addr, defs, ok),
			Val:  substitute(t.Val, defs, ok),
			W:    t.W,
		}
	case ivl.CallExpr:
		args := make([]ivl.Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = substitute(a, defs, ok)
		}
		return ivl.CallExpr{Sym: t.Sym, Args: args}
	}
	return e
}
