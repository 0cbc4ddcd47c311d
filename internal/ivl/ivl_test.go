package ivl

import (
	"testing"
	"testing/quick"
)

func intv(name string) Var { return Var{Name: name, Type: Int} }

func TestExprString(t *testing.T) {
	e := Bin(Add, IntVar("x"), C(0x13))
	if got := e.String(); got != "(x + 0x13)" {
		t.Errorf("String = %q", got)
	}
	s := Assign(intv("v1"), e)
	if got := s.String(); got != "v1 := (x + 0x13)" {
		t.Errorf("Stmt = %q", got)
	}
	ld := LoadExpr{Mem: IntVar("m"), Addr: IntVar("p"), W: 4}
	if got := ld.String(); got != "load32(m, p)" {
		t.Errorf("load = %q", got)
	}
}

func TestFreeVars(t *testing.T) {
	e := Bin(Add, Bin(Mul, IntVar("a"), IntVar("b")), IntVar("a"))
	fv := FreeVars(e)
	if len(fv) != 2 || fv[0].Name != "a" || fv[1].Name != "b" {
		t.Errorf("FreeVars = %v", fv)
	}
}

func TestRename(t *testing.T) {
	e := Bin(Add, IntVar("a"), IntVar("b"))
	r := Rename(e, func(v Var) Var { v.Name = v.Name + "_q"; return v })
	if r.String() != "(a_q + b_q)" {
		t.Errorf("Rename = %q", r)
	}
	// original unchanged
	if e.String() != "(a + b)" {
		t.Errorf("Rename mutated original: %q", e)
	}
}

func TestEvalArith(t *testing.T) {
	env := Env{"x": IntValue(10), "y": IntValue(3)}
	tests := []struct {
		e    Expr
		want uint64
	}{
		{Bin(Add, IntVar("x"), IntVar("y")), 13},
		{Bin(Sub, IntVar("x"), IntVar("y")), 7},
		{Bin(Mul, IntVar("x"), IntVar("y")), 30},
		{Bin(SDiv, IntVar("x"), IntVar("y")), 3},
		{Bin(SRem, IntVar("x"), IntVar("y")), 1},
		{Bin(And, IntVar("x"), IntVar("y")), 2},
		{Bin(Or, IntVar("x"), IntVar("y")), 11},
		{Bin(Xor, IntVar("x"), IntVar("y")), 9},
		{Bin(Shl, IntVar("x"), IntVar("y")), 80},
		{Bin(LShr, IntVar("x"), C(1)), 5},
		{Bin(SLt, IntVar("y"), IntVar("x")), 1},
		{Bin(UGt, IntVar("x"), IntVar("y")), 1},
		{Bin(Eq, IntVar("x"), IntVar("x")), 1},
		{Un(Not, C(0)), ^uint64(0)},
		{Un(Neg, C(5)), uint64(1<<64 - 5)},
		{Un(BoolNot, C(0)), 1},
		{IteExpr{Cond: C(1), Then: C(7), Else: C(9)}, 7},
		{IteExpr{Cond: C(0), Then: C(7), Else: C(9)}, 9},
		{TruncExpr{Bits: 8, X: C(0x1FF)}, 0xFF},
		{SextExpr{Bits: 8, X: C(0x80)}, ^uint64(0x7F)},
	}
	for _, tt := range tests {
		got, err := Eval(tt.e, env)
		if err != nil {
			t.Fatalf("Eval(%s): %v", tt.e, err)
		}
		if got.Bits != tt.want {
			t.Errorf("Eval(%s) = %#x, want %#x", tt.e, got.Bits, tt.want)
		}
	}
}

func TestEvalDivTotalization(t *testing.T) {
	// SMT-LIB semantics: nonneg/0 = all-ones, neg/0 = 1, x%0 = x.
	got, _ := Eval(Bin(SDiv, C(5), C(0)), nil)
	if got.Bits != ^uint64(0) {
		t.Errorf("5/0 = %#x", got.Bits)
	}
	got, _ = Eval(Bin(SDiv, Un(Neg, C(5)), C(0)), nil)
	if got.Bits != 1 {
		t.Errorf("-5/0 = %#x", got.Bits)
	}
	got, _ = Eval(Bin(SRem, C(5), C(0)), nil)
	if got.Bits != 5 {
		t.Errorf("5%%0 = %#x", got.Bits)
	}
	// INT_MIN / -1 does not trap.
	intMin := uint64(1) << 63
	got, _ = Eval(Bin(SDiv, C(intMin), Un(Neg, C(1))), nil)
	if got.Bits != intMin {
		t.Errorf("INT_MIN/-1 = %#x", got.Bits)
	}
}

func TestEvalUnbound(t *testing.T) {
	if _, err := Eval(IntVar("nope"), Env{}); err == nil {
		t.Error("unbound variable not reported")
	}
}

func TestMemLoadStore(t *testing.T) {
	m := NewMem(42)
	m2 := m.Store(0x100, 8, 0x1122334455667788)
	if got := m2.Load(0x100, 8); got != 0x1122334455667788 {
		t.Errorf("load after store = %#x", got)
	}
	if got := m2.Load(0x104, 4); got != 0x11223344 {
		t.Errorf("partial load = %#x", got)
	}
	// Store is persistent: original memory unchanged.
	if m.Load(0x100, 8) == 0x1122334455667788 {
		t.Error("store mutated original memory")
	}
	// Same seed reads the same background.
	if NewMem(42).Load(0x500, 8) != NewMem(42).Load(0x500, 8) {
		t.Error("background not deterministic")
	}
	// Different seeds read different backgrounds (overwhelmingly).
	if NewMem(1).Load(0x500, 8) == NewMem(2).Load(0x500, 8) {
		t.Error("distinct seeds collided")
	}
}

func TestMemEquality(t *testing.T) {
	a := NewMem(7).Store(0x10, 4, 0xAABBCCDD)
	b := NewMem(7).Store(0x10, 4, 0xAABBCCDD)
	c := NewMem(7).Store(0x10, 4, 0xAABBCCDE)
	if !MemValue(a).Equal(MemValue(b)) {
		t.Error("identical memories not equal")
	}
	if MemValue(a).Equal(MemValue(c)) {
		t.Error("different memories equal")
	}
	// Eq operator over memory values.
	env := Env{"m1": MemValue(a), "m2": MemValue(b), "m3": MemValue(c)}
	got, err := Eval(Bin(Eq, IntVar("m1"), IntVar("m2")), env)
	if err != nil || got.Bits != 1 {
		t.Errorf("m1 == m2: %v %v", got.Bits, err)
	}
	got, _ = Eval(Bin(Ne, IntVar("m1"), IntVar("m3")), env)
	if got.Bits != 1 {
		t.Errorf("m1 != m3 = %v", got.Bits)
	}
	if _, err := Eval(Bin(Add, IntVar("m1"), IntVar("m2")), env); err == nil {
		t.Error("arithmetic on memory not rejected")
	}
}

func TestEvalLoadStoreExpr(t *testing.T) {
	env := Env{"mem": MemValue(NewMem(3)), "p": IntValue(0x1000)}
	st := StoreExpr{Mem: IntVar("mem"), Addr: IntVar("p"), Val: C(0xBEEF), W: 2}
	mv, err := Eval(st, env)
	if err != nil {
		t.Fatal(err)
	}
	env["mem2"] = mv
	ld, err := Eval(LoadExpr{Mem: IntVar("mem2"), Addr: IntVar("p"), W: 2}, env)
	if err != nil {
		t.Fatal(err)
	}
	if ld.Bits != 0xBEEF {
		t.Errorf("load = %#x", ld.Bits)
	}
}

func TestEvalCallDeterministic(t *testing.T) {
	env := Env{"a": IntValue(11), "b": IntValue(22)}
	call := CallExpr{Sym: "call/2", Args: []Expr{IntVar("a"), IntVar("b")}}
	v1, err := Eval(call, env)
	if err != nil {
		t.Fatal(err)
	}
	v2, _ := Eval(call, env)
	if v1.Bits != v2.Bits {
		t.Error("uninterpreted call not deterministic")
	}
	// Different args give different results.
	other := CallExpr{Sym: "call/2", Args: []Expr{IntVar("b"), IntVar("a")}}
	v3, _ := Eval(other, env)
	if v3.Bits == v1.Bits {
		t.Error("arg order ignored by uninterpreted call")
	}
	// Different arity-class symbols differ.
	v4, _ := Eval(CallExpr{Sym: "call/1", Args: []Expr{IntVar("a")}}, env)
	if v4.Bits == v1.Bits {
		t.Error("symbol ignored by uninterpreted call")
	}
}

func TestEvalCallMem(t *testing.T) {
	env := Env{"a": IntValue(5)}
	v, err := Eval(CallExpr{Sym: "callmem/1", Args: []Expr{IntVar("a")}}, env)
	if err != nil {
		t.Fatal(err)
	}
	if v.M == nil {
		t.Fatal("callmem did not produce a memory value")
	}
	v2, _ := Eval(CallExpr{Sym: "callmem/1", Args: []Expr{IntVar("a")}}, env)
	if !v.Equal(v2) {
		t.Error("callmem not deterministic")
	}
}

func TestRunStmts(t *testing.T) {
	stmts := []Stmt{
		Assign(intv("v1"), Bin(Add, IntVar("x"), C(1))),
		Assign(intv("v2"), Bin(Mul, IntVar("v1"), C(2))),
	}
	env := Env{"x": IntValue(10)}
	if err := RunStmts(stmts, env); err != nil {
		t.Fatalf("RunStmts: %v", err)
	}
	if env["v1"].Bits != 11 || env["v2"].Bits != 22 {
		t.Errorf("env after run = %v, want v1=11 v2=22", env)
	}
	if err := RunStmts([]Stmt{Assign(intv("v3"), IntVar("unbound"))}, env); err == nil {
		t.Error("unbound variable not reported")
	}
}

// Property: trunc(sext(x)) at the same width is identity on the low bits.
func TestQuickTruncSext(t *testing.T) {
	f := func(x uint64) bool {
		for _, bits := range []uint{8, 16, 32} {
			e := TruncExpr{Bits: bits, X: SextExpr{Bits: bits, X: C(x)}}
			got, err := Eval(e, nil)
			if err != nil || got.Bits != x&((1<<bits)-1) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: memory store/load round-trips arbitrary values at arbitrary
// addresses and widths.
func TestQuickMemRoundTrip(t *testing.T) {
	f := func(seed, addr, val uint64, wsel uint8) bool {
		w := []uint{1, 2, 4, 8}[wsel%4]
		m := NewMem(seed).Store(addr, w, val)
		want := val
		if w < 8 {
			want &= (1 << (8 * w)) - 1
		}
		return m.Load(addr, w) == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestAppendRenamedMatchesString pins the fmt-free printer to the String
// methods over every node kind, renamed and not.
func TestAppendRenamedMatchesString(t *testing.T) {
	x, y, m := IntVar("x"), IntVar("y"), V(Var{Name: "m", Type: Mem})
	exprs := []Expr{
		x, C(0), C(0xdeadbeef), Un(Neg, x), Un(BoolNot, Bin(Eq, x, y)),
		Bin(Add, Bin(Mul, x, C(3)), Un(Not, y)),
		IteExpr{Cond: Bin(ULt, x, y), Then: x, Else: C(1)},
		TruncExpr{Bits: 32, X: x}, SextExpr{Bits: 8, X: Bin(LShr, y, C(7))},
		LoadExpr{Mem: m, Addr: Bin(Add, x, C(8)), W: 4},
		StoreExpr{Mem: m, Addr: x, Val: y, W: 1},
		CallExpr{Sym: "call/2", Args: []Expr{x, LoadExpr{Mem: m, Addr: y, W: 8}}},
		CallExpr{Sym: "call/0"},
	}
	upper := func(v Var) Var { return Var{Name: "r_" + v.Name, Type: v.Type} }
	for _, e := range exprs {
		same := AppendRenamed(nil, e, func(dst []byte, v Var) []byte { return append(dst, v.Name...) })
		if string(same) != e.String() {
			t.Errorf("identity: got %s, String() is %s", same, e)
		}
		renamed := AppendRenamed([]byte("k="), e, func(dst []byte, v Var) []byte { return append(dst, upper(v).Name...) })
		if want := "k=" + Rename(e, upper).String(); string(renamed) != want {
			t.Errorf("renamed: got %s, want %s", renamed, want)
		}
	}
}
