package smt

import (
	"errors"
	"fmt"

	"repro/internal/ivl"
)

// Program is a strand compiled to flat three-address code over a virtual
// register file. Compilation happens once per strand; fingerprints under
// different input-slot assignments (the γ correspondences of Algorithm 2)
// re-run only the flat code, which is the hot loop of the whole system.
//
// Compilation also performs the static analyses the batched kernel
// (kernel.go) relies on: a type per register (memory-typedness is static
// in well-formed IVL, and CompileStrand refuses a program where it is
// not), and a reordering of the code into a γ-invariant
// prefix — instructions whose transitive operands touch no input slot,
// so their values cannot depend on the slot assignment — followed by the
// γ-dependent suffix. Only the suffix re-runs per correspondence.
//
// A Program is immutable once compiled and owns no evaluation state:
// the lane buffers and arena live in whichever Kernel is bound to it at
// the moment (Kernel.Bind).
type Program struct {
	Inputs []ivl.Var // in slot-assignment order
	code   []cinstr
	nregs  int
	// defRegs lists, for each original SSA assignment in order, the
	// register holding its value and whether it is memory-typed.
	defRegs []defInfo
	// varRegs and varying describe the definitions by what a score needs
	// of them: varRegs[i] is the i-th distinct γ-dependent register among
	// defRegs (first-definition order) and varying[i] names its first
	// definition and how many definitions it holds; constDefs indexes the
	// definitions whose register is γ-invariant. Σ Mult + len(constDefs)
	// = len(defRegs).
	varRegs   []defInfo
	varying   []DefClass
	constDefs []int
	// memReg is the static type per register (true = memory).
	memReg []bool
	// prefixLen splits code: code[:prefixLen] is the γ-invariant prefix.
	prefixLen int
	// hasMem reports whether any register is memory-typed.
	hasMem bool
}

// DefClass is one distinct γ-dependent register among a program's
// definitions: Def is the index of the first definition it holds, Mult
// how many definitions hold it (a copy `a := b` defines no new register).
type DefClass struct{ Def, Mult int }

type defInfo struct {
	reg   int
	isMem bool
}

type copcode uint8

const (
	cConst copcode = iota
	cBin
	cUn
	cIte
	cTrunc
	cSext
	cLoad
	cStore
	cCall
)

type cinstr struct {
	op      copcode
	dst     int
	a, b, c int
	bin     ivl.BinOp
	un      ivl.UnOp
	bits    uint
	w       uint
	val     uint64
	sym     uint64 // hashed call symbol
	args    []int
	memC    bool // cCall producing memory (callmem)
}

// CompileStrand flattens an SSA assignment list into a Program. Inputs
// occupy registers [0, len(inputs)). It refuses a program the batched
// kernel's static typing cannot describe — an integer operator over a
// memory, an ite mixing a memory and an integer branch, a load or store
// through an integer, a statement whose declared type is not the type
// its value has — naming the statement and the reason.
func CompileStrand(stmts []ivl.Stmt, inputs []ivl.Var) (*Program, error) {
	p := &Program{Inputs: inputs, memReg: make([]bool, len(inputs))}
	regOf := make(map[string]int, len(inputs)+len(stmts))
	for i, in := range inputs {
		regOf[in.Name] = i
		p.memReg[i] = in.Type == ivl.Mem
	}

	// emit types the instruction, gives it a fresh destination register
	// and appends it. Code is in SSA order, so its operands are typed.
	emit := func(in cinstr) (int, error) {
		mem, err := p.resultType(&in)
		if err != nil {
			return 0, err
		}
		in.dst = len(p.memReg)
		p.memReg = append(p.memReg, mem)
		p.code = append(p.code, in)
		return in.dst, nil
	}

	var compile func(e ivl.Expr) (int, error)
	compile = func(e ivl.Expr) (int, error) {
		switch t := e.(type) {
		case ivl.VarExpr:
			r, ok := regOf[t.V.Name]
			if !ok {
				return 0, fmt.Errorf("unbound variable %q", t.V.Name)
			}
			return r, nil
		case ivl.ConstExpr:
			return emit(cinstr{op: cConst, val: t.Val})
		case ivl.UnExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cUn, a: a, un: t.Op})
		case ivl.BinExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			b, err := compile(t.Y)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cBin, a: a, b: b, bin: t.Op})
		case ivl.IteExpr:
			c, err := compile(t.Cond)
			if err != nil {
				return 0, err
			}
			a, err := compile(t.Then)
			if err != nil {
				return 0, err
			}
			b, err := compile(t.Else)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cIte, c: c, a: a, b: b})
		case ivl.TruncExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cTrunc, a: a, bits: t.Bits})
		case ivl.SextExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cSext, a: a, bits: t.Bits})
		case ivl.LoadExpr:
			m, err := compile(t.Mem)
			if err != nil {
				return 0, err
			}
			a, err := compile(t.Addr)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cLoad, a: m, b: a, w: t.W})
		case ivl.StoreExpr:
			m, err := compile(t.Mem)
			if err != nil {
				return 0, err
			}
			a, err := compile(t.Addr)
			if err != nil {
				return 0, err
			}
			v, err := compile(t.Val)
			if err != nil {
				return 0, err
			}
			return emit(cinstr{op: cStore, a: m, b: a, c: v, w: t.W})
		case ivl.CallExpr:
			args := make([]int, len(t.Args))
			for i, arg := range t.Args {
				ar, err := compile(arg)
				if err != nil {
					return 0, err
				}
				args[i] = ar
			}
			isMem := len(t.Sym) >= 7 && t.Sym[:7] == "callmem"
			return emit(cinstr{op: cCall, args: args, sym: mix64(hashString(t.Sym)), memC: isMem})
		}
		return 0, fmt.Errorf("cannot compile %T", e)
	}

	for i, s := range stmts {
		r, err := compile(s.Rhs)
		if err == nil && (s.Dst.Type == ivl.Mem) != p.memReg[r] {
			err = fmt.Errorf("declared %s but holds a %s value", s.Dst.Type, typeName(p.memReg[r]))
		}
		if err != nil {
			return nil, fmt.Errorf("smt: statement %d (%s): %w", i, s.Dst.Name, err)
		}
		regOf[s.Dst.Name] = r
		p.defRegs = append(p.defRegs, defInfo{reg: r, isMem: p.memReg[r]})
	}
	p.nregs = len(p.memReg)
	p.analyze()
	return p, nil
}

// resultType reports whether the instruction's result is a memory, or why
// the static typing cannot describe it. Memory operands of cBin are legal:
// memories compare for (in)equality, and the result is an integer.
func (p *Program) resultType(in *cinstr) (bool, error) {
	m := p.memReg
	switch in.op {
	case cUn, cTrunc, cSext:
		if m[in.a] {
			return false, errors.New("integer operator over a memory")
		}
	case cIte:
		if m[in.c] {
			return false, errors.New("ite condition is a memory")
		}
		if m[in.a] != m[in.b] {
			return false, errors.New("ite branches mix a memory and an integer")
		}
		return m[in.a], nil
	case cLoad, cStore:
		if !m[in.a] {
			return false, errors.New("load or store through an integer")
		}
		if m[in.b] || (in.op == cStore && m[in.c]) {
			return false, errors.New("memory used as an address or stored value")
		}
		return in.op == cStore, nil
	case cCall:
		return in.memC, nil
	}
	return false, nil
}

func typeName(mem bool) string {
	if mem {
		return ivl.Mem.String()
	}
	return ivl.Int.String()
}

// srcs appends the operand registers the instruction actually reads.
// Unused operand fields hold zero, which would alias register 0 (the
// first input), so they must never be consulted.
func (in *cinstr) srcs(buf []int) []int {
	switch in.op {
	case cConst:
	case cBin:
		buf = append(buf, in.a, in.b)
	case cUn, cTrunc, cSext:
		buf = append(buf, in.a)
	case cIte:
		buf = append(buf, in.c, in.a, in.b)
	case cLoad:
		buf = append(buf, in.a, in.b)
	case cStore:
		buf = append(buf, in.a, in.b, in.c)
	case cCall:
		buf = append(buf, in.args...)
	}
	return buf
}

// analyze computes the γ-invariant prefix split the batched kernel
// needs. Code is in SSA order (every operand is defined before use), so
// one forward pass suffices.
func (p *Program) analyze() {
	for _, m := range p.memReg {
		if m {
			p.hasMem = true
			break
		}
	}

	// γ-invariant prefix: an instruction is hoistable when no transitive
	// operand reaches an input register, because input registers are the
	// only values that change with the slot assignment (and, per
	// SlotBits/SlotMemSeed, with the sample index). Reordering is sound:
	// every register is written exactly once and operands precede their
	// uses, and an instruction depending only on invariant instructions
	// is itself invariant, so the partition respects all data deps.
	dep := make([]bool, p.nregs)
	for i := range p.Inputs {
		dep[i] = true
	}
	prefix := make([]cinstr, 0, len(p.code))
	var suffix []cinstr
	var sbuf [8]int
	for _, in := range p.code {
		d := false
		for _, s := range in.srcs(sbuf[:0]) {
			if dep[s] {
				d = true
				break
			}
		}
		dep[in.dst] = d
		if d {
			suffix = append(suffix, in)
		} else {
			prefix = append(prefix, in)
		}
	}
	p.prefixLen = len(prefix)
	p.code = append(prefix, suffix...)

	// Definitions by what varies: a γ-invariant definition's fingerprint
	// is a constant of the strand, and definitions sharing a register
	// share a fingerprint under every assignment.
	classOf := make([]int, p.nregs) // register → index into varying, +1
	for d, di := range p.defRegs {
		if !dep[di.reg] {
			p.constDefs = append(p.constDefs, d)
			continue
		}
		if classOf[di.reg] == 0 {
			p.varRegs = append(p.varRegs, di)
			p.varying = append(p.varying, DefClass{Def: d})
			classOf[di.reg] = len(p.varying)
		}
		p.varying[classOf[di.reg]-1].Mult++
	}
}

// InstrCounts returns how many instructions were hoisted into the
// γ-invariant prefix and the total instruction count, for telemetry.
func (p *Program) InstrCounts() (prefix, total int) {
	return p.prefixLen, len(p.code)
}

// Varying returns the distinct γ-dependent definition registers, in the
// order Kernel.VaryingRows reports their fingerprints. The slice is the
// program's own: read-only.
func (p *Program) Varying() []DefClass { return p.varying }

// ConstDefs returns the indices of the γ-invariant definitions: their
// fingerprints depend on the sample count only, not on the assignment.
// The slice is the program's own: read-only.
func (p *Program) ConstDefs() []int { return p.constDefs }

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Fingerprints runs the program over k sample vectors with input i taking
// slot slotOf[i], and returns one value-vector fingerprint per original
// SSA definition, in definition order. Memory fingerprints live in a
// separate hash domain from integers.
//
// This is the scalar reference: one interpreter pass per sample over
// boxed ivl.Value registers. The batched SoA kernel (kernel.go) is the
// only code a binary evaluates a strand with; this interpreter is the
// oracle its differentials compare against, in this package and — through
// vcp.NewReferenceEvaluator at width 0 — in vcp and core. It is exported,
// in a non-test file, because a _test.go file is visible only to its own
// package.
func (p *Program) Fingerprints(slotOf []int, k int) []uint64 {
	fps := make([]uint64, len(p.defRegs))
	regs := make([]ivl.Value, p.nregs)
	for s := 0; s < k; s++ {
		for i, in := range p.Inputs {
			regs[i] = SlotValue(s, slotOf[i], in.Type)
		}
		p.run(regs)
		for d, di := range p.defRegs {
			v := regs[di.reg]
			h := v.Hash()
			if v.M != nil {
				h = mix64(h ^ memHashTag)
			}
			fps[d] = mix64(fps[d]*fpPrime ^ h)
		}
	}
	return fps
}

// run executes the flat code against the register file.
func (p *Program) run(regs []ivl.Value) {
	for _, in := range p.code {
		switch in.op {
		case cConst:
			regs[in.dst] = ivl.IntValue(in.val)
		case cBin:
			x, y := regs[in.a], regs[in.b]
			if x.M != nil || y.M != nil {
				eq := x.Equal(y)
				switch in.bin {
				case ivl.Eq:
					regs[in.dst] = ivl.IntValue(boolBit(eq))
				case ivl.Ne:
					regs[in.dst] = ivl.IntValue(boolBit(!eq))
				default:
					regs[in.dst] = ivl.IntValue(0)
				}
				continue
			}
			regs[in.dst] = ivl.IntValue(ivl.EvalBin(in.bin, x.Bits, y.Bits))
		case cUn:
			x := regs[in.a].Bits
			switch in.un {
			case ivl.Not:
				regs[in.dst] = ivl.IntValue(^x)
			case ivl.Neg:
				regs[in.dst] = ivl.IntValue(-x)
			default: // BoolNot
				regs[in.dst] = ivl.IntValue(boolBit(x == 0))
			}
		case cIte:
			if regs[in.c].Bits != 0 {
				regs[in.dst] = regs[in.a]
			} else {
				regs[in.dst] = regs[in.b]
			}
		case cTrunc:
			if in.bits >= 64 {
				regs[in.dst] = regs[in.a]
			} else {
				regs[in.dst] = ivl.IntValue(regs[in.a].Bits & ((1 << in.bits) - 1))
			}
		case cSext:
			sh := 64 - in.bits
			regs[in.dst] = ivl.IntValue(uint64(int64(regs[in.a].Bits<<sh) >> sh))
		case cLoad:
			m := regs[in.a].M
			regs[in.dst] = ivl.IntValue(m.Load(regs[in.b].Bits, in.w))
		case cStore:
			m := regs[in.a].M
			regs[in.dst] = ivl.MemValue(m.Store(regs[in.b].Bits, in.w, regs[in.c].Bits))
		case cCall:
			h := in.sym
			for _, a := range in.args {
				av := regs[a]
				h = mix64(h ^ av.Hash())
			}
			if in.memC {
				regs[in.dst] = ivl.MemValue(ivl.NewMem(h))
			} else {
				regs[in.dst] = ivl.IntValue(h)
			}
		}
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}
