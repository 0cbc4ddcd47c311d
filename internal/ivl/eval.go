package ivl

import "fmt"

// Value is a runtime IVL value: a 64-bit bitvector or a memory state.
type Value struct {
	M    *MemVal // non-nil for Mem-typed values
	Bits uint64
}

// IntValue wraps a bitvector as a Value.
func IntValue(v uint64) Value { return Value{Bits: v} }

// MemVal is an immutable memory state: a deterministic pseudo-random
// background derived from Seed, plus a persistent chain of store nodes.
// Store is O(1); the value hash is maintained incrementally, so two
// memories are considered equal when they were built from equal
// backgrounds by the same store sequence (program order). Matched
// strands arising from the same source code perform their stores in the
// same order, so the incremental hash preserves the equalities the
// verifier needs; differently-ordered but extensionally-equal stores are
// conservatively considered different.
type MemVal struct {
	Seed   uint64
	parent *MemVal // nil at the background root
	addr   uint64
	w      uint
	val    uint64
	hash   uint64
}

// NewMem returns a fresh memory with the given background seed.
func NewMem(seed uint64) *MemVal {
	return &MemVal{Seed: seed, hash: mix64(seed)}
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed mixer used
// to give uninterpreted entities (memory backgrounds, call results)
// deterministic pseudo-random values.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// MemValue wraps a memory as a Value.
func MemValue(m *MemVal) Value { return Value{M: m} }

// byteAt reads one byte of memory: the newest covering store wins.
func (m *MemVal) byteAt(addr uint64) byte {
	for n := m; n != nil; n = n.parent {
		if n.parent == nil {
			break
		}
		if addr >= n.addr && addr < n.addr+uint64(n.w) {
			return byte(n.val >> (8 * (addr - n.addr)))
		}
	}
	return byte(mix64(m.Seed ^ mix64(addr)))
}

// Load reads w bytes little-endian.
func (m *MemVal) Load(addr uint64, w uint) uint64 {
	var v uint64
	for i := uint(0); i < w; i++ {
		v |= uint64(m.byteAt(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Store returns a new memory with the low w bytes of val written at addr.
// The receiver is not modified.
func (m *MemVal) Store(addr uint64, w uint, val uint64) *MemVal {
	if w < 8 {
		val &= (uint64(1) << (8 * w)) - 1
	}
	return &MemVal{
		Seed:   m.Seed,
		parent: m,
		addr:   addr,
		w:      w,
		val:    val,
		hash:   mix64(m.hash ^ mix64(addr)*3 ^ mix64(val) ^ uint64(w)),
	}
}

// Hash returns the value hash of the memory state.
func (m *MemVal) Hash() uint64 { return m.hash }

// Hash returns a value hash usable for grouping equal values.
func (v Value) Hash() uint64 {
	if v.M != nil {
		return v.M.Hash()
	}
	return v.Bits
}

// Equal reports whether two values are observably equal. Memories are
// equal when every address reads equal: same seed and compatible overlays.
func (v Value) Equal(o Value) bool {
	if (v.M != nil) != (o.M != nil) {
		return false
	}
	if v.M == nil {
		return v.Bits == o.Bits
	}
	return v.M.Hash() == o.M.Hash()
}

// Env is an evaluation environment mapping variable names to values.
type Env map[string]Value

// hashString folds a string into a seed.
func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

func sext(v uint64, bits uint) uint64 {
	sh := 64 - bits
	return uint64(int64(v<<sh) >> sh)
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// Eval evaluates e under env. Unbound variables are an error; semantics
// of division by zero follow SMT-LIB totalization.
func Eval(e Expr, env Env) (Value, error) {
	switch t := e.(type) {
	case VarExpr:
		v, ok := env[t.V.Name]
		if !ok {
			return Value{}, fmt.Errorf("ivl: unbound variable %q", t.V.Name)
		}
		return v, nil
	case ConstExpr:
		return IntValue(t.Val), nil
	case UnExpr:
		x, err := Eval(t.X, env)
		if err != nil {
			return Value{}, err
		}
		switch t.Op {
		case Not:
			return IntValue(^x.Bits), nil
		case Neg:
			return IntValue(-x.Bits), nil
		case BoolNot:
			return IntValue(b2u(x.Bits == 0)), nil
		}
	case BinExpr:
		x, err := Eval(t.X, env)
		if err != nil {
			return Value{}, err
		}
		y, err := Eval(t.Y, env)
		if err != nil {
			return Value{}, err
		}
		if x.M != nil || y.M != nil {
			// Memory values support only (in)equality.
			switch t.Op {
			case Eq:
				return IntValue(b2u(x.Equal(y))), nil
			case Ne:
				return IntValue(b2u(!x.Equal(y))), nil
			default:
				return Value{}, fmt.Errorf("ivl: operator %s on memory value", t.Op)
			}
		}
		return IntValue(EvalBin(t.Op, x.Bits, y.Bits)), nil
	case IteExpr:
		c, err := Eval(t.Cond, env)
		if err != nil {
			return Value{}, err
		}
		if c.Bits != 0 {
			return Eval(t.Then, env)
		}
		return Eval(t.Else, env)
	case TruncExpr:
		x, err := Eval(t.X, env)
		if err != nil {
			return Value{}, err
		}
		if t.Bits >= 64 {
			return x, nil
		}
		return IntValue(x.Bits & ((1 << t.Bits) - 1)), nil
	case SextExpr:
		x, err := Eval(t.X, env)
		if err != nil {
			return Value{}, err
		}
		return IntValue(sext(x.Bits, t.Bits)), nil
	case LoadExpr:
		m, err := Eval(t.Mem, env)
		if err != nil {
			return Value{}, err
		}
		if m.M == nil {
			return Value{}, fmt.Errorf("ivl: load from non-memory value")
		}
		a, err := Eval(t.Addr, env)
		if err != nil {
			return Value{}, err
		}
		return IntValue(m.M.Load(a.Bits, t.W)), nil
	case StoreExpr:
		m, err := Eval(t.Mem, env)
		if err != nil {
			return Value{}, err
		}
		if m.M == nil {
			return Value{}, fmt.Errorf("ivl: store to non-memory value")
		}
		a, err := Eval(t.Addr, env)
		if err != nil {
			return Value{}, err
		}
		v, err := Eval(t.Val, env)
		if err != nil {
			return Value{}, err
		}
		return MemValue(m.M.Store(a.Bits, t.W, v.Bits)), nil
	case CallExpr:
		h := mix64(hashString(t.Sym))
		for _, arg := range t.Args {
			av, err := Eval(arg, env)
			if err != nil {
				return Value{}, err
			}
			h = mix64(h ^ av.Hash())
		}
		if len(t.Sym) > 7 && t.Sym[:7] == "callmem" {
			// Calls may modify memory: the post-call memory is a fresh
			// uninterpreted memory determined by the call's arguments.
			return MemValue(NewMem(h)), nil
		}
		return IntValue(h), nil
	}
	return Value{}, fmt.Errorf("ivl: cannot evaluate %T", e)
}

// EvalBin applies a binary operator to 64-bit operands with SMT-LIB
// totalization for division; comparisons yield 0 or 1.
func EvalBin(op BinOp, a, b uint64) uint64 {
	switch op {
	case Add:
		return a + b
	case Sub:
		return a - b
	case Mul:
		return a * b
	case SDiv:
		if b == 0 {
			// SMT-LIB bvsdiv totalization.
			if int64(a) >= 0 {
				return ^uint64(0)
			}
			return 1
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return a
		}
		return uint64(int64(a) / int64(b))
	case SRem:
		if b == 0 {
			return a
		}
		if int64(a) == -1<<63 && int64(b) == -1 {
			return 0
		}
		return uint64(int64(a) % int64(b))
	case And:
		return a & b
	case Or:
		return a | b
	case Xor:
		return a ^ b
	case Shl:
		return a << (b & 63)
	case LShr:
		return a >> (b & 63)
	case AShr:
		return uint64(int64(a) >> (b & 63))
	case Eq:
		return b2u(a == b)
	case Ne:
		return b2u(a != b)
	case SLt:
		return b2u(int64(a) < int64(b))
	case SLe:
		return b2u(int64(a) <= int64(b))
	case SGt:
		return b2u(int64(a) > int64(b))
	case SGe:
		return b2u(int64(a) >= int64(b))
	case ULt:
		return b2u(a < b)
	case ULe:
		return b2u(a <= b)
	case UGt:
		return b2u(a > b)
	case UGe:
		return b2u(a >= b)
	}
	return 0
}

// RunStmts executes a straight-line statement list, extending env with
// each assignment.
func RunStmts(stmts []Stmt, env Env) error {
	for _, s := range stmts {
		v, err := Eval(s.Rhs, env)
		if err != nil {
			return err
		}
		env[s.Dst.Name] = v
	}
	return nil
}
