package sketch

import (
	"reflect"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// mkStrand builds a strand computing a small hash loop body.
func mkStrand(names ...string) *strand.Strand {
	// names lets tests alpha-rename without changing structure.
	n := func(i int) string { return names[i] }
	in := func(i int) ivl.Expr { return ivl.IntVar(n(i)) }
	v := func(i int) ivl.Var { return ivl.Var{Name: n(i), Type: ivl.Int} }
	return &strand.Strand{
		ProcName: "p",
		Inputs:   []ivl.Var{v(0), v(1)},
		Stmts: []ivl.Stmt{
			ivl.Assign(v(2), ivl.Bin(ivl.Mul, in(0), ivl.C(33))),
			ivl.Assign(v(3), ivl.Bin(ivl.Add, ivl.IntVar(n(2)), in(1))),
			ivl.Assign(v(4), ivl.Bin(ivl.Xor, ivl.IntVar(n(3)), ivl.Bin(ivl.LShr, ivl.IntVar(n(3)), ivl.C(7)))),
		},
	}
}

func TestComputeDeterministicAndAlphaInvariant(t *testing.T) {
	s1 := mkStrand("a", "b", "c", "d", "e")
	s2 := mkStrand("x9", "y7", "z1", "w2", "q3") // alpha-renamed, same structure

	sig1 := Compute(s1, Config{})
	sig1b := Compute(s1, Config{})
	sig2 := Compute(s2, Config{})

	if got, want := len(sig1), (Config{}).Len(); got != want {
		t.Fatalf("signature length = %d, want %d", got, want)
	}
	if !reflect.DeepEqual(sig1, sig1b) {
		t.Error("Compute is not deterministic")
	}
	if !reflect.DeepEqual(sig1, sig2) {
		t.Error("alpha-renamed strands should share a signature")
	}
}

func TestFeaturesSortedAndStable(t *testing.T) {
	s := mkStrand("a", "b", "c", "d", "e")
	f1 := Features(s)
	f2 := Features(s)
	if !reflect.DeepEqual(f1, f2) {
		t.Fatal("Features is not deterministic")
	}
	if len(f1) == 0 {
		t.Fatal("no features for a non-empty strand")
	}
	for i := 1; i < len(f1); i++ {
		if f1[i-1] >= f1[i] {
			t.Fatalf("features not strictly sorted at %d", i)
		}
	}
}

func TestIndexSelfCandidate(t *testing.T) {
	ix := NewIndex(Config{})
	s := mkStrand("a", "b", "c", "d", "e")
	sum := Summarize(s, ix.Config())
	id := ix.Add(sum)
	mark := make([]bool, ix.Len())
	n := ix.Candidates(sum, mark)
	if !mark[id] {
		t.Error("a strand is not a candidate of its own summary")
	}
	if n != 1 {
		t.Errorf("candidate count = %d, want 1", n)
	}
}

// memStrand is pure memory traffic: its inputs are (Mem, Int), so the
// all-Int hash loop is injectability-dead against it in both directions.
func memStrand() *strand.Strand {
	mem := ivl.Var{Name: "m", Type: ivl.Mem}
	p := ivl.Var{Name: "p", Type: ivl.Int}
	return &strand.Strand{
		ProcName: "q",
		Inputs:   []ivl.Var{mem, p},
		Stmts: []ivl.Stmt{
			ivl.Assign(ivl.Var{Name: "t0", Type: ivl.Int}, ivl.LoadExpr{Mem: ivl.V(mem), Addr: ivl.V(p), W: 8}),
			ivl.Assign(ivl.Var{Name: "t1", Type: ivl.Int}, ivl.Bin(ivl.ULt, ivl.IntVar("t0"), ivl.C(0x1000))),
			ivl.Assign(ivl.Var{Name: "m1", Type: ivl.Mem},
				ivl.StoreExpr{Mem: ivl.V(mem), Addr: ivl.Bin(ivl.Sub, ivl.V(p), ivl.C(16)), Val: ivl.IntVar("t1"), W: 8}),
		},
	}
}

// arithStrand shares the hash loop's input typing (two Int inputs) but
// none of its operators, constants, or shape — a live pair the sound
// core must keep however dissimilar.
func arithStrand() *strand.Strand {
	v := func(name string) ivl.Var { return ivl.Var{Name: name, Type: ivl.Int} }
	return &strand.Strand{
		ProcName: "r",
		Inputs:   []ivl.Var{v("x"), v("y")},
		Stmts: []ivl.Stmt{
			ivl.Assign(v("t0"), ivl.Bin(ivl.Sub, ivl.IntVar("x"), ivl.C(0x1000))),
			ivl.Assign(v("t1"), ivl.Bin(ivl.ULt, ivl.IntVar("t0"), ivl.IntVar("y"))),
			ivl.Assign(v("t2"), ivl.Bin(ivl.And, ivl.IntVar("t1"), ivl.Bin(ivl.Shl, ivl.IntVar("y"), ivl.C(3)))),
			ivl.Assign(v("t3"), ivl.Bin(ivl.Or, ivl.IntVar("t2"), ivl.C(0xff))),
		},
	}
}

func TestIndexSoundCoreDropsTypeDeadPairs(t *testing.T) {
	// The default (sound-only) candidate rule keeps every pair that is
	// live in either direction — however dissimilar — and drops pairs
	// whose typed inputs cannot inject either way, whose VCP is exactly
	// zero by construction.
	cfg := Config{}.Normalized()
	hash := Summarize(mkStrand("a", "b", "c", "d", "e"), cfg)
	mem := Summarize(memStrand(), cfg)
	arith := Summarize(arithStrand(), cfg)

	if hash.Injects(mem) || mem.Injects(hash) {
		t.Fatal("test premise broken: hash/mem pair should be dead both ways")
	}
	ix := NewIndex(cfg)
	memID := ix.Add(mem)
	arithID := ix.Add(arith)
	mark := make([]bool, ix.Len())
	n := ix.Candidates(hash, mark)
	if mark[memID] {
		t.Error("type-dead pair survived the sound candidate rule")
	}
	if !mark[arithID] {
		t.Error("live-but-dissimilar pair was dropped by the sound candidate rule")
	}
	if n != 1 {
		t.Errorf("candidate count = %d, want 1", n)
	}
}

func TestConfigNormalized(t *testing.T) {
	c := Config{}.Normalized()
	if c.Bands != DefaultBands || c.Rows != DefaultRows {
		t.Fatalf("Normalized() = %+v", c)
	}
	if got := (Config{Bands: 4, Rows: 2}).Len(); got != 8 {
		t.Fatalf("Len() = %d, want 8", got)
	}
}

func TestEmptyStrandSignature(t *testing.T) {
	s := &strand.Strand{ProcName: "empty"}
	sig := Compute(s, Config{})
	sig2 := Compute(s, Config{})
	if !reflect.DeepEqual(sig, sig2) {
		t.Fatal("empty strand signature not deterministic")
	}
	if len(sig) != (Config{}).Len() {
		t.Fatalf("empty strand signature length %d", len(sig))
	}
}
