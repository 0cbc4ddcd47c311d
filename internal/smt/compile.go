package smt

import (
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
// in well-formed IVL), and a reordering of the code into a γ-invariant
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
	// memReg is the static type per register (true = memory). Valid for
	// all registers when batchOK; the scalar path never consults it.
	memReg []bool
	// prefixLen splits code: code[:prefixLen] is the γ-invariant prefix.
	prefixLen int
	// hasMem reports whether any register is memory-typed.
	hasMem bool
	// batchOK reports whether the static typing above fully describes
	// the program. Ill-typed programs (e.g. an ite mixing memory and
	// integer branches, or integer operators applied to memories) keep
	// the dynamic scalar semantics and fall back to Fingerprints.
	batchOK bool
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
// occupy registers [0, len(inputs)).
func CompileStrand(stmts []ivl.Stmt, inputs []ivl.Var) (*Program, error) {
	p := &Program{Inputs: inputs}
	regOf := make(map[string]int, len(inputs)+len(stmts))
	for i, in := range inputs {
		regOf[in.Name] = i
	}
	p.nregs = len(inputs)

	var compile func(e ivl.Expr) (int, error)
	alloc := func() int { r := p.nregs; p.nregs++; return r }

	compile = func(e ivl.Expr) (int, error) {
		switch t := e.(type) {
		case ivl.VarExpr:
			r, ok := regOf[t.V.Name]
			if !ok {
				return 0, fmt.Errorf("smt: unbound variable %q", t.V.Name)
			}
			return r, nil
		case ivl.ConstExpr:
			r := alloc()
			p.code = append(p.code, cinstr{op: cConst, dst: r, val: t.Val})
			return r, nil
		case ivl.UnExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			r := alloc()
			p.code = append(p.code, cinstr{op: cUn, dst: r, a: a, un: t.Op})
			return r, nil
		case ivl.BinExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			b, err := compile(t.Y)
			if err != nil {
				return 0, err
			}
			r := alloc()
			p.code = append(p.code, cinstr{op: cBin, dst: r, a: a, b: b, bin: t.Op})
			return r, nil
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
			r := alloc()
			p.code = append(p.code, cinstr{op: cIte, dst: r, c: c, a: a, b: b})
			return r, nil
		case ivl.TruncExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			r := alloc()
			p.code = append(p.code, cinstr{op: cTrunc, dst: r, a: a, bits: t.Bits})
			return r, nil
		case ivl.SextExpr:
			a, err := compile(t.X)
			if err != nil {
				return 0, err
			}
			r := alloc()
			p.code = append(p.code, cinstr{op: cSext, dst: r, a: a, bits: t.Bits})
			return r, nil
		case ivl.LoadExpr:
			m, err := compile(t.Mem)
			if err != nil {
				return 0, err
			}
			a, err := compile(t.Addr)
			if err != nil {
				return 0, err
			}
			r := alloc()
			p.code = append(p.code, cinstr{op: cLoad, dst: r, a: m, b: a, w: t.W})
			return r, nil
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
			r := alloc()
			p.code = append(p.code, cinstr{op: cStore, dst: r, a: m, b: a, c: v, w: t.W})
			return r, nil
		case ivl.CallExpr:
			args := make([]int, len(t.Args))
			for i, arg := range t.Args {
				ar, err := compile(arg)
				if err != nil {
					return 0, err
				}
				args[i] = ar
			}
			r := alloc()
			isMem := len(t.Sym) >= 7 && t.Sym[:7] == "callmem"
			p.code = append(p.code, cinstr{op: cCall, dst: r, args: args,
				sym: mix64(hashString(t.Sym)), memC: isMem})
			return r, nil
		}
		return 0, fmt.Errorf("smt: cannot compile %T", e)
	}

	for _, s := range stmts {
		r, err := compile(s.Rhs)
		if err != nil {
			return nil, err
		}
		regOf[s.Dst.Name] = r
		p.defRegs = append(p.defRegs, defInfo{reg: r, isMem: s.Dst.Type == ivl.Mem})
	}
	p.analyze()
	return p, nil
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

// analyze computes the static register types and the γ-invariant prefix
// split the batched kernel needs. Code is in SSA order (every operand is
// defined before use), so one forward pass suffices for both.
func (p *Program) analyze() {
	memReg := make([]bool, p.nregs)
	for i, in := range p.Inputs {
		memReg[i] = in.Type == ivl.Mem
	}
	ok := true
	for i := range p.code {
		in := &p.code[i]
		switch in.op {
		case cConst, cBin:
			// Integer result. Memory operands of cBin are legal (the
			// scalar path compares them); the result is still integer.
		case cUn, cTrunc, cSext:
			if memReg[in.a] {
				ok = false // scalar reads .Bits (0) of a memory value
			}
		case cIte:
			if memReg[in.c] || memReg[in.a] != memReg[in.b] {
				ok = false
			}
			memReg[in.dst] = memReg[in.a]
		case cLoad:
			if !memReg[in.a] || memReg[in.b] {
				ok = false
			}
		case cStore:
			if !memReg[in.a] || memReg[in.b] || memReg[in.c] {
				ok = false
			}
			memReg[in.dst] = true
		case cCall:
			memReg[in.dst] = in.memC
		}
	}
	for _, di := range p.defRegs {
		if di.isMem != memReg[di.reg] {
			ok = false // declared type disagrees with the computed one
		}
	}
	p.memReg = memReg
	p.batchOK = ok
	for _, m := range memReg {
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

// BatchOK reports whether the batched SoA kernel supports this program.
// The rare ill-typed programs it rejects keep the scalar path.
func (p *Program) BatchOK() bool { return p.batchOK }

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
// This is the scalar reference path: one interpreter pass per sample
// over boxed ivl.Value registers. The batched SoA kernel (kernel.go) is
// the production path; this implementation is kept as the differential
// oracle tests reach through vcp.NewReferenceEvaluator and as the
// fallback for the rare programs the kernel's static typing rejects.
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
