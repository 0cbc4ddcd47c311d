package asm

import (
	"errors"
	"fmt"
)

// Flags holds the status flags the subset ISA models.
type Flags struct {
	ZF, SF, OF, CF bool
}

// Extern is a Go implementation of an external procedure. It receives the
// machine so it can read argument registers and memory, and returns the
// value to place in rax.
type Extern func(m *Machine) uint64

// Machine is an emulated processor with sparse byte-addressed memory.
// The zero value is not ready to use; call NewMachine.
type Machine struct {
	Regs  [NumRegs]uint64
	Flags Flags
	mem   map[uint64]byte

	procs    map[string]*Proc
	externs  map[string]Extern
	steps    int
	maxSteps int
}

// ErrStepLimit is returned when execution exceeds the step budget,
// indicating a runaway loop.
var ErrStepLimit = errors.New("asm: step limit exceeded")

// StackTop is the initial rsp value.
const StackTop = 0x7fff_0000

// NewMachine returns a machine with rsp initialized and a default step
// budget of one million instructions.
func NewMachine() *Machine {
	m := &Machine{
		mem:      make(map[uint64]byte),
		procs:    make(map[string]*Proc),
		externs:  make(map[string]Extern),
		maxSteps: 1_000_000,
	}
	m.Regs[RSP] = StackTop
	return m
}

// SetMaxSteps overrides the instruction budget.
func (m *Machine) SetMaxSteps(n int) { m.maxSteps = n }

// AddProc registers a procedure so CALLs to its name execute it.
func (m *Machine) AddProc(p *Proc) { m.procs[p.Name] = p }

// AddExtern registers a Go handler for CALLs to name.
func (m *Machine) AddExtern(name string, fn Extern) { m.externs[name] = fn }

// ReadMem reads w bytes little-endian at addr. Unwritten memory reads as 0.
func (m *Machine) ReadMem(addr uint64, w Width) uint64 {
	var v uint64
	for i := uint(0); i < uint(w); i++ {
		v |= uint64(m.mem[addr+uint64(i)]) << (8 * i)
	}
	return v
}

// WriteMem writes the low w bytes of v little-endian at addr.
func (m *Machine) WriteMem(addr uint64, w Width, v uint64) {
	for i := uint(0); i < uint(w); i++ {
		m.mem[addr+uint64(i)] = byte(v >> (8 * i))
	}
}

// effAddr computes the effective address of a memory operand.
func (m *Machine) effAddr(o Operand) uint64 {
	var a uint64
	if o.Base != NoReg {
		a = m.Regs[o.Base]
	}
	if o.Index != NoReg {
		a += m.Regs[o.Index] * uint64(o.Scale)
	}
	return a + uint64(o.Disp)
}

// readOp reads an operand value zero-extended to 64 bits.
func (m *Machine) readOp(o Operand) uint64 {
	switch o.Kind {
	case KindReg:
		return m.Regs[o.Reg] & o.Width.Mask()
	case KindImm:
		return uint64(o.Imm) & o.Width.Mask()
	case KindMem:
		return m.ReadMem(m.effAddr(o), o.Width)
	}
	return 0
}

// writeOp writes v to a register or memory operand with x86 width rules:
// 32-bit register writes zero the upper half; 8/16-bit writes merge.
func (m *Machine) writeOp(o Operand, v uint64) {
	switch o.Kind {
	case KindReg:
		switch o.Width {
		case Width8:
			m.Regs[o.Reg] = v
		case Width4:
			m.Regs[o.Reg] = v & 0xFFFF_FFFF
		default:
			mask := o.Width.Mask()
			m.Regs[o.Reg] = (m.Regs[o.Reg] &^ mask) | (v & mask)
		}
	case KindMem:
		m.WriteMem(m.effAddr(o), o.Width, v)
	}
}

func signBit(v uint64, w Width) bool { return v>>(w.Bits()-1)&1 == 1 }

// signExtend sign-extends the low w bytes of v to 64 bits.
func signExtend(v uint64, w Width) uint64 {
	sh := 64 - w.Bits()
	return uint64(int64(v<<sh) >> sh)
}

func (m *Machine) setLogicFlags(res uint64, w Width) {
	res &= w.Mask()
	m.Flags = Flags{ZF: res == 0, SF: signBit(res, w)}
}

func (m *Machine) setAddFlags(a, b, res uint64, w Width) {
	res &= w.Mask()
	m.Flags.ZF = res == 0
	m.Flags.SF = signBit(res, w)
	m.Flags.CF = res < (a & w.Mask())
	m.Flags.OF = signBit(a, w) == signBit(b, w) && signBit(res, w) != signBit(a, w)
}

func (m *Machine) setSubFlags(a, b, res uint64, w Width) {
	a &= w.Mask()
	b &= w.Mask()
	res &= w.Mask()
	m.Flags.ZF = res == 0
	m.Flags.SF = signBit(res, w)
	m.Flags.CF = a < b
	m.Flags.OF = signBit(a, w) != signBit(b, w) && signBit(res, w) != signBit(a, w)
}

// cond evaluates a condition code against the current flags.
func (m *Machine) cond(c CC) bool {
	f := m.Flags
	switch c {
	case E:
		return f.ZF
	case NE:
		return !f.ZF
	case L:
		return f.SF != f.OF
	case LE:
		return f.ZF || f.SF != f.OF
	case G:
		return !f.ZF && f.SF == f.OF
	case GE:
		return f.SF == f.OF
	case B:
		return f.CF
	case BE:
		return f.CF || f.ZF
	case A:
		return !f.CF && !f.ZF
	case AE:
		return !f.CF
	case S:
		return f.SF
	case NS:
		return !f.SF
	}
	return false
}

// Run executes the named procedure to its RET and returns rax.
func (m *Machine) Run(name string) (uint64, error) {
	if err := m.call(name); err != nil {
		return 0, err
	}
	return m.Regs[RAX], nil
}

func (m *Machine) call(name string) error {
	if fn, ok := m.externs[name]; ok {
		m.Regs[RAX] = fn(m)
		return nil
	}
	p, ok := m.procs[name]
	if !ok {
		return fmt.Errorf("asm: unknown procedure %q", name)
	}
	labels := make(map[string]int)
	for i, in := range p.Insts {
		if in.Op == LABEL {
			labels[in.Sym] = i
		}
	}
	pc := 0
	for pc < len(p.Insts) {
		if m.steps++; m.steps > m.maxSteps {
			return ErrStepLimit
		}
		in := p.Insts[pc]
		next := pc + 1
		switch in.Op {
		case LABEL, NOP:
		case MOV:
			m.writeOp(in.Dst, m.readOp(in.Src))
		case MOVZX:
			m.writeOp(in.Dst, m.readOp(in.Src)) // readOp zero-extends
		case MOVSX:
			m.writeOp(in.Dst, signExtend(m.readOp(in.Src), in.Src.Width))
		case LEA:
			m.writeOp(in.Dst, m.effAddr(in.Src))
		case ADD:
			a, b := m.readOp(in.Dst), m.readOp(in.Src)
			res := a + b
			m.setAddFlags(a, b, res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case SUB:
			a, b := m.readOp(in.Dst), m.readOp(in.Src)
			res := a - b
			m.setSubFlags(a, b, res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case IMUL:
			a, b := m.readOp(in.Dst), m.readOp(in.Src)
			w := in.Dst.Width
			res := uint64(int64(signExtend(a, w)) * int64(signExtend(b, w)))
			m.setLogicFlags(res, w)
			m.writeOp(in.Dst, res)
		case NEG:
			a := m.readOp(in.Dst)
			res := -a
			m.setSubFlags(0, a, res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case NOT:
			m.writeOp(in.Dst, ^m.readOp(in.Dst))
		case AND:
			res := m.readOp(in.Dst) & m.readOp(in.Src)
			m.setLogicFlags(res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case OR:
			res := m.readOp(in.Dst) | m.readOp(in.Src)
			m.setLogicFlags(res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case XOR:
			res := m.readOp(in.Dst) ^ m.readOp(in.Src)
			m.setLogicFlags(res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case SHL:
			sh := m.readOp(in.Src) & 63
			res := m.readOp(in.Dst) << sh
			m.setLogicFlags(res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case SHR:
			sh := m.readOp(in.Src) & 63
			res := m.readOp(in.Dst) >> sh
			m.setLogicFlags(res, in.Dst.Width)
			m.writeOp(in.Dst, res)
		case SAR:
			sh := m.readOp(in.Src) & 63
			w := in.Dst.Width
			res := uint64(int64(signExtend(m.readOp(in.Dst), w)) >> sh)
			m.setLogicFlags(res, w)
			m.writeOp(in.Dst, res)
		case INC:
			a := m.readOp(in.Dst)
			res := a + 1
			cf := m.Flags.CF // INC preserves CF
			m.setAddFlags(a, 1, res, in.Dst.Width)
			m.Flags.CF = cf
			m.writeOp(in.Dst, res)
		case DEC:
			a := m.readOp(in.Dst)
			res := a - 1
			cf := m.Flags.CF // DEC preserves CF
			m.setSubFlags(a, 1, res, in.Dst.Width)
			m.Flags.CF = cf
			m.writeOp(in.Dst, res)
		case CMP:
			a, b := m.readOp(in.Dst), m.readOp(in.Src)
			m.setSubFlags(a, b, a-b, in.Dst.Width)
		case TEST:
			m.setLogicFlags(m.readOp(in.Dst)&m.readOp(in.Src), in.Dst.Width)
		case PUSH:
			m.Regs[RSP] -= 8
			m.WriteMem(m.Regs[RSP], Width8, m.readOp(in.Dst))
		case POP:
			m.writeOp(in.Dst, m.ReadMem(m.Regs[RSP], Width8))
			m.Regs[RSP] += 8
		case CQO:
			m.Regs[RDX] = uint64(int64(m.Regs[RAX]) >> 63)
		case IDIV:
			d := int64(m.readOp(in.Dst))
			if d == 0 {
				return fmt.Errorf("asm: divide by zero in %s", p.Name)
			}
			n := int64(m.Regs[RAX])
			m.Regs[RAX] = uint64(n / d)
			m.Regs[RDX] = uint64(n % d)
		case CALL:
			if err := m.call(in.Sym); err != nil {
				return err
			}
		case RET:
			return nil
		case JMP:
			t, ok := labels[in.Sym]
			if !ok {
				return fmt.Errorf("asm: unknown label %q in %s", in.Sym, p.Name)
			}
			next = t
		case JCC:
			if m.cond(in.CC) {
				t, ok := labels[in.Sym]
				if !ok {
					return fmt.Errorf("asm: unknown label %q in %s", in.Sym, p.Name)
				}
				next = t
			}
		case SETCC:
			v := uint64(0)
			if m.cond(in.CC) {
				v = 1
			}
			m.writeOp(in.Dst, v)
		case CMOVCC:
			if m.cond(in.CC) {
				m.writeOp(in.Dst, m.readOp(in.Src))
			}
		default:
			return fmt.Errorf("asm: cannot execute %s", in)
		}
		pc = next
	}
	return nil
}
