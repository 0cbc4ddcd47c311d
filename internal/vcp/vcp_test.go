package vcp

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/ivl"
	"repro/internal/lift"
	"repro/internal/strand"
)

func iv(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }

func mkStrand(inputs []string, stmts ...ivl.Stmt) *strand.Strand {
	s := &strand.Strand{Stmts: stmts}
	for _, n := range inputs {
		s.Inputs = append(s.Inputs, iv(n))
	}
	return s
}

// liftFirstStrand lifts an asm snippet and returns the largest strand of
// its first block.
func liftFirstStrand(t *testing.T, src string) *strand.Strand {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lift.LiftProc(g)
	if err != nil {
		t.Fatal(err)
	}
	strands := strand.FromBlock(p.Name, lp.Blocks[0])
	if len(strands) == 0 {
		t.Fatal("no strands")
	}
	best := strands[0]
	for _, s := range strands {
		if s.NumVars() > best.NumVars() {
			best = s
		}
	}
	return best
}

func TestComputeIdentical(t *testing.T) {
	q := mkStrand([]string{"x"},
		ivl.Assign(iv("a"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.C(1))),
		ivl.Assign(iv("b"), ivl.Bin(ivl.Mul, ivl.IntVar("a"), ivl.C(2))),
	)
	tt := mkStrand([]string{"y"},
		ivl.Assign(iv("c"), ivl.Bin(ivl.Add, ivl.IntVar("y"), ivl.C(1))),
		ivl.Assign(iv("d"), ivl.Bin(ivl.Mul, ivl.IntVar("c"), ivl.C(2))),
	)
	cfg := Config{MinVars: 1}
	got := Compute(Prepare(q, cfg), Prepare(tt, cfg), cfg)
	if got != 1.0 {
		t.Errorf("VCP = %v, want 1.0", got)
	}
}

func TestComputeAsymmetric(t *testing.T) {
	// Paper Fig. 3: query fully contained in a larger target gives
	// VCP(q,t) = 1 but VCP(t,q) < 1.
	q := mkStrand([]string{"r12"},
		ivl.Assign(iv("v1"), ivl.VarExpr{V: iv("r12")}),
		ivl.Assign(iv("v2"), ivl.Bin(ivl.Add, ivl.C(0x13), ivl.IntVar("v1"))),
		ivl.Assign(iv("r14"), ivl.IntVar("v2")),
		ivl.Assign(iv("v4"), ivl.C(0x18)),
		ivl.Assign(iv("rsi"), ivl.IntVar("v4")),
		ivl.Assign(iv("v5"), ivl.Bin(ivl.Add, ivl.IntVar("v4"), ivl.IntVar("v2"))),
		ivl.Assign(iv("rax"), ivl.IntVar("v5")),
	)
	tgt := mkStrand([]string{"rbx"},
		ivl.Assign(iv("t1"), ivl.C(0x13)),
		ivl.Assign(iv("r9"), ivl.IntVar("t1")),
		ivl.Assign(iv("t2"), ivl.VarExpr{V: iv("rbx")}),
		ivl.Assign(iv("t3"), ivl.Bin(ivl.Add, ivl.IntVar("t2"), ivl.IntVar("t1"))),
		ivl.Assign(iv("r13"), ivl.IntVar("t3")),
		ivl.Assign(iv("t5"), ivl.Bin(ivl.Add, ivl.IntVar("t1"), ivl.C(5))),
		ivl.Assign(iv("rsi2"), ivl.IntVar("t5")),
		ivl.Assign(iv("t6"), ivl.Bin(ivl.Add, ivl.IntVar("t5"), ivl.IntVar("t3"))),
		ivl.Assign(iv("rax2"), ivl.IntVar("t6")),
	)
	cfg := Config{MinVars: 1}
	fwd := Compute(Prepare(q, cfg), Prepare(tgt, cfg), cfg)
	if fwd != 1.0 {
		t.Errorf("VCP(q,t) = %v, want 1.0", fwd)
	}
	rev := Compute(Prepare(tgt, cfg), Prepare(q, cfg), cfg)
	if rev >= 1.0 {
		t.Errorf("VCP(t,q) = %v, want < 1 (r9=0x13 has no counterpart)", rev)
	}
	if rev < 0.5 {
		t.Errorf("VCP(t,q) = %v, unexpectedly low", rev)
	}
}

func TestComputeCommutedInputs(t *testing.T) {
	// q computes a-b; target computes y-x. Correct correspondence is
	// a->y? No: a-b equals y-x only under a=y, b=x. The enumeration must
	// find it even though input orders are swapped.
	q := mkStrand([]string{"a", "b"},
		ivl.Assign(iv("v"), ivl.Bin(ivl.Sub, ivl.IntVar("a"), ivl.IntVar("b"))),
	)
	tgt := mkStrand([]string{"x", "y"},
		ivl.Assign(iv("w"), ivl.Bin(ivl.Sub, ivl.IntVar("y"), ivl.IntVar("x"))),
	)
	cfg := Config{MinVars: 1}
	if got := Compute(Prepare(q, cfg), Prepare(tgt, cfg), cfg); got != 1.0 {
		t.Errorf("VCP = %v, want 1.0 (swap correspondence)", got)
	}
}

func TestComputeInputCountMismatch(t *testing.T) {
	q := mkStrand([]string{"a", "b"},
		ivl.Assign(iv("v"), ivl.Bin(ivl.Add, ivl.IntVar("a"), ivl.IntVar("b"))),
	)
	tgt := mkStrand([]string{"x"},
		ivl.Assign(iv("w"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.C(1))),
	)
	cfg := Config{MinVars: 1}
	if got := Compute(Prepare(q, cfg), Prepare(tgt, cfg), cfg); got != 0 {
		t.Errorf("VCP with more query inputs than target = %v, want 0", got)
	}
}

func TestComputeTypePreserving(t *testing.T) {
	mvar := ivl.Var{Name: "m", Type: ivl.Mem}
	q := &strand.Strand{
		Inputs: []ivl.Var{mvar, iv("p")},
		Stmts: []ivl.Stmt{
			ivl.Assign(iv("v"), ivl.LoadExpr{Mem: ivl.VarExpr{V: mvar}, Addr: ivl.IntVar("p"), W: 8}),
		},
	}
	// Target has two int inputs and no memory: no valid correspondence.
	tgt := mkStrand([]string{"x", "y"},
		ivl.Assign(iv("w"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.IntVar("y"))),
	)
	cfg := Config{MinVars: 1}
	if got := Compute(Prepare(q, cfg), Prepare(tgt, cfg), cfg); got != 0 {
		t.Errorf("VCP across types = %v, want 0", got)
	}
}

func TestComputeDifferent(t *testing.T) {
	q := mkStrand([]string{"x"},
		ivl.Assign(iv("a"), ivl.Bin(ivl.Mul, ivl.IntVar("x"), ivl.C(3))),
		ivl.Assign(iv("b"), ivl.Bin(ivl.Xor, ivl.IntVar("a"), ivl.C(0x55))),
	)
	tgt := mkStrand([]string{"y"},
		ivl.Assign(iv("c"), ivl.Bin(ivl.Add, ivl.IntVar("y"), ivl.C(7))),
		ivl.Assign(iv("d"), ivl.Bin(ivl.LShr, ivl.IntVar("c"), ivl.C(2))),
	)
	cfg := Config{MinVars: 1}
	if got := Compute(Prepare(q, cfg), Prepare(tgt, cfg), cfg); got != 0 {
		t.Errorf("VCP of unrelated strands = %v, want 0", got)
	}
}

// TestComputeVerdicts pins what the sample battery and the fold decide on
// small hand-built pairs, through the production path.
func TestComputeVerdicts(t *testing.T) {
	x, y := ivl.IntVar("x"), ivl.IntVar("y")
	mem := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Mem} }
	// Paper Fig. 4: v2 = v1 + c; v3 = v2 ^ v1; v4 = v3 & v2; v5 = v4 <s 0.
	fig4 := func(in string, c uint64) *strand.Strand {
		v1 := ivl.IntVar(in)
		return mkStrand([]string{in},
			ivl.Assign(iv(in+"2"), ivl.Bin(ivl.Add, v1, ivl.C(c))),
			ivl.Assign(iv(in+"3"), ivl.Bin(ivl.Xor, ivl.IntVar(in+"2"), v1)),
			ivl.Assign(iv(in+"4"), ivl.Bin(ivl.And, ivl.IntVar(in+"3"), ivl.IntVar(in+"2"))),
			ivl.Assign(iv(in+"5"), ivl.Bin(ivl.SLt, ivl.IntVar(in+"4"), ivl.C(0))),
		)
	}
	store := func(m, a, v string) *strand.Strand {
		return &strand.Strand{
			Inputs: []ivl.Var{mem(m), iv(a), iv(v)},
			Stmts: []ivl.Stmt{ivl.Assign(mem(m+"1"), ivl.StoreExpr{
				Mem: ivl.V(mem(m)), Addr: ivl.IntVar(a), Val: ivl.IntVar(v), W: 8})},
		}
	}
	// one is a strand of a single definition over one input.
	one := func(in string, rhs ivl.Expr) *strand.Strand {
		return mkStrand([]string{in}, ivl.Assign(iv("d"+in), rhs))
	}
	call := func(in string) *strand.Strand {
		return one(in, ivl.CallExpr{Sym: "call/1", Args: []ivl.Expr{ivl.IntVar(in)}})
	}
	chain := func(in string, last uint64) *strand.Strand {
		return mkStrand([]string{in},
			ivl.Assign(iv(in+"a"), ivl.Bin(ivl.Add, ivl.IntVar(in), ivl.C(1))),
			ivl.Assign(iv(in+"b"), ivl.Bin(ivl.Mul, ivl.IntVar(in+"a"), ivl.C(2))),
			ivl.Assign(iv(in+"c"), ivl.Bin(ivl.Xor, ivl.IntVar(in+"b"), ivl.C(last))),
		)
	}
	tests := []struct {
		name string
		q, t *strand.Strand
		want float64
	}{
		{"fig4", fig4("q", 1), fig4("t", 16), 0},
		{"equal-stores", store("mq", "aq", "vq"), store("mt", "at", "vt"), 1},
		{"congruent-calls", call("aq"), call("at"), 1},
		{"zero-only-difference", one("x", ivl.Bin(ivl.Ne, x, ivl.C(0))), one("y", ivl.C(1)), 0},
		{"distributive",
			one("x", ivl.Bin(ivl.Mul, ivl.Bin(ivl.Add, x, ivl.C(1)), ivl.C(2))),
			one("y", ivl.Bin(ivl.Add, ivl.Bin(ivl.Mul, y, ivl.C(2)), ivl.C(2))), 1},
		{"x+1-vs-x+2", one("x", ivl.Bin(ivl.Add, x, ivl.C(1))), one("y", ivl.Bin(ivl.Add, y, ivl.C(2))), 0},
		{"two-of-three", chain("q", 0x55), chain("t", 0x66), 2.0 / 3.0},
	}
	cfg := Config{MinVars: 1}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q, tg := Prepare(tt.q, cfg), Prepare(tt.t, cfg)
			if q.Err() != nil || tg.Err() != nil { // a failed Prepare scores 0 too
				t.Fatalf("Prepare: %v, %v", q.Err(), tg.Err())
			}
			if got := Compute(q, tg, cfg); got != tt.want {
				t.Errorf("VCP = %v, want %v", got, tt.want)
			}
		})
	}
}

func TestComputeCrossCompilerStrengthReduction(t *testing.T) {
	// gcc-style: shl; icc-style: imul; clang-style: lea with scale.
	shl := liftFirstStrand(t, "proc a\n\tmov rax, rdi\n\tshl rax, 3\n\tadd rax, rsi\n\tret\nendp")
	imul := liftFirstStrand(t, "proc b\n\tmov rax, rdi\n\timul rax, 8\n\tadd rax, rsi\n\tret\nendp")
	lea := liftFirstStrand(t, "proc c\n\tlea rax, [rsi+rdi*8]\n\tret\nendp")
	cfg := Config{MinVars: 1, SizeRatio: 0.1}
	if got := Compute(Prepare(shl, cfg), Prepare(imul, cfg), cfg); got != 1.0 {
		t.Errorf("VCP(shl,imul) = %v, want 1.0", got)
	}
	// The lea form computes the same final value; the smaller lea strand
	// must be fully contained in the shl strand.
	if got := Compute(Prepare(lea, cfg), Prepare(shl, cfg), cfg); got < 0.5 {
		t.Errorf("VCP(lea,shl) = %v, want >= 0.5", got)
	}
}

func TestSizeCompatible(t *testing.T) {
	small := mkStrand([]string{"x"}, ivl.Assign(iv("a"), ivl.IntVar("x")))
	big := mkStrand([]string{"x"},
		ivl.Assign(iv("a"), ivl.IntVar("x")),
		ivl.Assign(iv("b"), ivl.IntVar("a")),
		ivl.Assign(iv("c"), ivl.IntVar("b")),
		ivl.Assign(iv("d"), ivl.IntVar("c")),
		ivl.Assign(iv("e"), ivl.IntVar("d")),
	)
	if SizeCompatible(small, big, 0.5) {
		t.Error("1 vs 5 vars accepted at ratio 0.5")
	}
	if !SizeCompatible(big, big, 0.5) {
		t.Error("equal sizes rejected")
	}
	mid := mkStrand([]string{"x"},
		ivl.Assign(iv("a"), ivl.IntVar("x")),
		ivl.Assign(iv("b"), ivl.IntVar("a")),
		ivl.Assign(iv("c"), ivl.IntVar("b")),
	)
	if !SizeCompatible(big, mid, 0.5) {
		t.Error("5 vs 3 rejected at ratio 0.5")
	}
}

func TestDefaultConfig(t *testing.T) {
	d := Default()
	if d.MinVars != 5 || d.SizeRatio != 0.5 {
		t.Errorf("Default() = %+v; paper settings are MinVars=5, SizeRatio=0.5", d)
	}
	var zero Config
	n := zero.normalized()
	if n.Samples != d.Samples || n.MinVars != d.MinVars {
		t.Error("zero Config does not normalize to Default")
	}
}

func TestPrepareErrorPropagates(t *testing.T) {
	// A strand referencing an unbound variable (broken inputs) errors at
	// Prepare and at Index, and yields VCP 0 either way.
	broken := &strand.Strand{
		Stmts: []ivl.Stmt{ivl.Assign(iv("a"), ivl.IntVar("ghost"))},
	}
	cfg := Config{MinVars: 1}
	p, x := Prepare(broken, cfg), Index(broken, cfg)
	if p.Err() == nil || x.Err() == nil {
		t.Errorf("broken strand prepared (%v) or indexed (%v) without error", p.Err(), x.Err())
	}
	q := mkStrand([]string{"x"}, ivl.Assign(iv("a"), ivl.IntVar("x")))
	for _, tgt := range []Matched{p, x} {
		if got := Compute(Prepare(q, cfg), tgt, cfg); got != 0 {
			t.Errorf("VCP against broken target %T = %v, want 0", tgt, got)
		}
	}
}

// TestFPSet pins the flat fingerprint set against a map on the inputs
// its encoding has to get right: the zero fingerprint (zero also marks
// an empty slot), duplicates, colliding low bits, the empty set, and
// probes whose top six bits — the filter word's index — a member shares.
func TestFPSet(t *testing.T) {
	for _, fps := range [][]uint64{
		nil,
		{0},
		{0, 0, 5, 5},
		{8, 16, 24, 32, 40, 48, 56, 64, 72}, // equal low bits: one long probe run
		{1, 2, 3, ^uint64(0), 1 << 63},
		{1<<58 | 7, 63 << 58}, // filter bits 1 and 63 only
	} {
		set := newFPSet(fps)
		want := map[uint64]bool{}
		for _, h := range fps {
			want[h] = true
		}
		for _, h := range append([]uint64{0, 4, 7, 80, 1<<63 + 1, 1 << 58, 62 << 58, 63<<58 | 1}, fps...) {
			if set.has(h) != want[h] {
				t.Fatalf("set %v: has(%d) = %v", fps, h, set.has(h))
			}
		}
	}
}
