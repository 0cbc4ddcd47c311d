// Package ivl defines the intermediate verification language the Esh
// pipeline works over: a non-branching, SSA-form subset of a Boogie-like
// language. Assembly blocks are lifted into sequences of single-assignment
// statements over 64-bit bitvector variables, an explicit memory variable,
// and uninterpreted function applications for procedure calls.
//
// The package plays the role BoogieIVL plays in the paper, minus its
// assume/assert statements: strands are extracted from IVL statement
// lists, package smt compiles them, and package vcp decides variable
// equivalence by comparing sampled input/output fingerprints.
package ivl

import (
	"fmt"
	"strconv"
	"strings"
)

// Type classifies IVL variables. All scalar values are 64-bit bitvectors;
// memory is a separate sort, as in the paper's lifted code.
type Type uint8

// Variable types.
const (
	Int Type = iota // 64-bit bitvector
	Mem             // byte-addressed memory array
)

func (t Type) String() string {
	if t == Mem {
		return "mem"
	}
	return "bv64"
}

// Var is an IVL variable. Names are unique within a procedure (SSA).
type Var struct {
	Name string
	Type Type
}

func (v Var) String() string { return v.Name }

// IsZero reports whether v is the zero Var.
func (v Var) IsZero() bool { return v.Name == "" }

// UnOp is a unary operator.
type UnOp uint8

// Unary operators.
const (
	Not UnOp = iota // bitwise complement
	Neg             // two's complement negation
	BoolNot
)

var unNames = map[UnOp]string{Not: "not", Neg: "neg", BoolNot: "!"}

func (o UnOp) String() string { return unNames[o] }

// BinOp is a binary operator. Comparison operators yield 0 or 1.
type BinOp uint8

// Binary operators.
const (
	Add BinOp = iota
	Sub
	Mul
	SDiv
	SRem
	And
	Or
	Xor
	Shl
	LShr
	AShr
	Eq
	Ne
	SLt
	SLe
	SGt
	SGe
	ULt
	ULe
	UGt
	UGe
)

var binNames = map[BinOp]string{
	Add: "+", Sub: "-", Mul: "*", SDiv: "/s", SRem: "%s",
	And: "&", Or: "|", Xor: "^", Shl: "<<", LShr: ">>u", AShr: ">>s",
	Eq: "==", Ne: "!=", SLt: "<s", SLe: "<=s", SGt: ">s", SGe: ">=s",
	ULt: "<u", ULe: "<=u", UGt: ">u", UGe: ">=u",
}

func (o BinOp) String() string { return binNames[o] }

// IsCommutative reports whether x op y == y op x.
func (o BinOp) IsCommutative() bool {
	switch o {
	case Add, Mul, And, Or, Xor, Eq, Ne:
		return true
	}
	return false
}

// Expr is an IVL expression tree node.
type Expr interface {
	isExpr()
	String() string
}

// VarExpr references a variable.
type VarExpr struct{ V Var }

// ConstExpr is a 64-bit constant.
type ConstExpr struct{ Val uint64 }

// UnExpr applies a unary operator.
type UnExpr struct {
	Op UnOp
	X  Expr
}

// BinExpr applies a binary operator.
type BinExpr struct {
	Op   BinOp
	X, Y Expr
}

// IteExpr is if-then-else: Cond != 0 ? Then : Else.
type IteExpr struct{ Cond, Then, Else Expr }

// TruncExpr truncates to the low Bits bits (zero-extending back to 64).
type TruncExpr struct {
	Bits uint
	X    Expr
}

// SextExpr sign-extends the low Bits bits to 64.
type SextExpr struct {
	Bits uint
	X    Expr
}

// LoadExpr reads W bytes little-endian from memory at Addr.
type LoadExpr struct {
	Mem  Expr
	Addr Expr
	W    uint // bytes: 1, 2, 4, 8
}

// StoreExpr yields the memory resulting from writing the low W bytes of
// Val at Addr.
type StoreExpr struct {
	Mem  Expr
	Addr Expr
	Val  Expr
	W    uint
}

// CallExpr is an uninterpreted function application modelling the result
// of a procedure call. Sym is an arity-class symbol (call targets are
// unavailable in stripped binaries), e.g. "call/2" or "callmem/2".
type CallExpr struct {
	Sym  string
	Args []Expr
}

func (VarExpr) isExpr()   {}
func (ConstExpr) isExpr() {}
func (UnExpr) isExpr()    {}
func (BinExpr) isExpr()   {}
func (IteExpr) isExpr()   {}
func (TruncExpr) isExpr() {}
func (SextExpr) isExpr()  {}
func (LoadExpr) isExpr()  {}
func (StoreExpr) isExpr() {}
func (CallExpr) isExpr()  {}

func (e VarExpr) String() string   { return e.V.Name }
func (e ConstExpr) String() string { return fmt.Sprintf("%#x", e.Val) }
func (e UnExpr) String() string    { return fmt.Sprintf("%s(%s)", e.Op, e.X) }
func (e BinExpr) String() string   { return fmt.Sprintf("(%s %s %s)", e.X, e.Op, e.Y) }
func (e IteExpr) String() string   { return fmt.Sprintf("ite(%s, %s, %s)", e.Cond, e.Then, e.Else) }
func (e TruncExpr) String() string { return fmt.Sprintf("trunc%d(%s)", e.Bits, e.X) }
func (e SextExpr) String() string  { return fmt.Sprintf("sext%d(%s)", e.Bits, e.X) }
func (e LoadExpr) String() string  { return fmt.Sprintf("load%d(%s, %s)", e.W*8, e.Mem, e.Addr) }
func (e StoreExpr) String() string {
	return fmt.Sprintf("store%d(%s, %s, %s)", e.W*8, e.Mem, e.Addr, e.Val)
}
func (e CallExpr) String() string {
	parts := make([]string, len(e.Args))
	for i, a := range e.Args {
		parts[i] = a.String()
	}
	return fmt.Sprintf("%s(%s)", e.Sym, strings.Join(parts, ", "))
}

// AppendRenamed appends to dst exactly what Rename(e, ·).String() would
// render, with name appending each variable's new name — without building
// the renamed tree or going through fmt. It is the strand canonical key's
// printer (strand.CanonicalKey), so its output is snapshot content: the
// String methods above are the reference it is pinned to.
func AppendRenamed(dst []byte, e Expr, name func(dst []byte, v Var) []byte) []byte {
	switch t := e.(type) {
	case VarExpr:
		return name(dst, t.V)
	case ConstExpr:
		return strconv.AppendUint(append(dst, "0x"...), t.Val, 16)
	case UnExpr:
		return appendArgs(append(dst, t.Op.String()...), name, t.X)
	case BinExpr:
		dst = AppendRenamed(append(dst, '('), t.X, name)
		dst = append(append(append(dst, ' '), t.Op.String()...), ' ')
		return append(AppendRenamed(dst, t.Y, name), ')')
	case IteExpr:
		return appendArgs(append(dst, "ite"...), name, t.Cond, t.Then, t.Else)
	case TruncExpr:
		return appendArgs(appendSized(dst, "trunc", t.Bits), name, t.X)
	case SextExpr:
		return appendArgs(appendSized(dst, "sext", t.Bits), name, t.X)
	case LoadExpr:
		return appendArgs(appendSized(dst, "load", t.W*8), name, t.Mem, t.Addr)
	case StoreExpr:
		return appendArgs(appendSized(dst, "store", t.W*8), name, t.Mem, t.Addr, t.Val)
	case CallExpr:
		return appendArgs(append(dst, t.Sym...), name, t.Args...)
	}
	return append(dst, e.String()...)
}

func appendSized(dst []byte, op string, n uint) []byte {
	return strconv.AppendUint(append(dst, op...), uint64(n), 10)
}

func appendArgs(dst []byte, name func([]byte, Var) []byte, es ...Expr) []byte {
	dst = append(dst, '(')
	for i, a := range es {
		if i > 0 {
			dst = append(dst, ", "...)
		}
		dst = AppendRenamed(dst, a, name)
	}
	return append(dst, ')')
}

// Convenience constructors.

// V wraps a Var as an expression.
func V(v Var) Expr { return VarExpr{V: v} }

// IntVar returns a bv64 variable expression named name.
func IntVar(name string) Expr { return VarExpr{V: Var{Name: name, Type: Int}} }

// C returns a constant expression.
func C(v uint64) Expr { return ConstExpr{Val: v} }

// Bin builds a binary expression.
func Bin(op BinOp, x, y Expr) Expr { return BinExpr{Op: op, X: x, Y: y} }

// Un builds a unary expression.
func Un(op UnOp, x Expr) Expr { return UnExpr{Op: op, X: x} }

// Stmt is an IVL statement: one SSA assignment.
type Stmt struct {
	Dst Var
	Rhs Expr
}

// Assign builds an assignment statement.
func Assign(dst Var, rhs Expr) Stmt { return Stmt{Dst: dst, Rhs: rhs} }

func (s Stmt) String() string { return fmt.Sprintf("%s := %s", s.Dst, s.Rhs) }

// FreeVars returns the variables referenced in e, in first-use order.
func FreeVars(e Expr) []Var {
	var out []Var
	seen := map[string]bool{}
	WalkVars(e, func(v Var) {
		if !seen[v.Name] {
			seen[v.Name] = true
			out = append(out, v)
		}
	})
	return out
}

// WalkVars calls fn for every variable reference in e (with repeats).
func WalkVars(e Expr, fn func(Var)) {
	switch t := e.(type) {
	case VarExpr:
		fn(t.V)
	case ConstExpr:
	case UnExpr:
		WalkVars(t.X, fn)
	case BinExpr:
		WalkVars(t.X, fn)
		WalkVars(t.Y, fn)
	case IteExpr:
		WalkVars(t.Cond, fn)
		WalkVars(t.Then, fn)
		WalkVars(t.Else, fn)
	case TruncExpr:
		WalkVars(t.X, fn)
	case SextExpr:
		WalkVars(t.X, fn)
	case LoadExpr:
		WalkVars(t.Mem, fn)
		WalkVars(t.Addr, fn)
	case StoreExpr:
		WalkVars(t.Mem, fn)
		WalkVars(t.Addr, fn)
		WalkVars(t.Val, fn)
	case CallExpr:
		for _, a := range t.Args {
			WalkVars(a, fn)
		}
	}
}

// Rename returns e with every variable renamed through fn.
func Rename(e Expr, fn func(Var) Var) Expr {
	switch t := e.(type) {
	case VarExpr:
		return VarExpr{V: fn(t.V)}
	case ConstExpr:
		return t
	case UnExpr:
		return UnExpr{Op: t.Op, X: Rename(t.X, fn)}
	case BinExpr:
		return BinExpr{Op: t.Op, X: Rename(t.X, fn), Y: Rename(t.Y, fn)}
	case IteExpr:
		return IteExpr{Cond: Rename(t.Cond, fn), Then: Rename(t.Then, fn), Else: Rename(t.Else, fn)}
	case TruncExpr:
		return TruncExpr{Bits: t.Bits, X: Rename(t.X, fn)}
	case SextExpr:
		return SextExpr{Bits: t.Bits, X: Rename(t.X, fn)}
	case LoadExpr:
		return LoadExpr{Mem: Rename(t.Mem, fn), Addr: Rename(t.Addr, fn), W: t.W}
	case StoreExpr:
		return StoreExpr{Mem: Rename(t.Mem, fn), Addr: Rename(t.Addr, fn), Val: Rename(t.Val, fn), W: t.W}
	case CallExpr:
		args := make([]Expr, len(t.Args))
		for i, a := range t.Args {
			args[i] = Rename(a, fn)
		}
		return CallExpr{Sym: t.Sym, Args: args}
	}
	return e
}
