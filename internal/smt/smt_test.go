package smt

import (
	"testing"

	"repro/internal/ivl"
)

func TestSlotValueDeterministic(t *testing.T) {
	for s := 0; s < DefaultSamples; s++ {
		for slot := 0; slot < 4; slot++ {
			a := SlotValue(s, slot, ivl.Int)
			b := SlotValue(s, slot, ivl.Int)
			if a.Bits != b.Bits {
				t.Fatal("SlotValue not deterministic")
			}
			m1 := SlotValue(s, slot, ivl.Mem)
			m2 := SlotValue(s, slot, ivl.Mem)
			if !m1.Equal(m2) {
				t.Fatal("mem SlotValue not deterministic")
			}
		}
	}
	// Different slots must differ in the random region.
	if SlotValue(DefaultSamples-1, 0, ivl.Int).Bits == SlotValue(DefaultSamples-1, 1, ivl.Int).Bits {
		t.Error("random region slots collide")
	}
}

func TestSlotValueCoversZeroAndAllSame(t *testing.T) {
	// Sample 0 must give every slot the value 0 (catches x==0 behaviours),
	// and every all-same sample must have slot0 == slot5.
	if SlotValue(0, 0, ivl.Int).Bits != 0 || SlotValue(0, 5, ivl.Int).Bits != 0 {
		t.Error("sample 0 is not the all-zeros vector")
	}
	for s := 0; s < allSameSpecials; s++ {
		if SlotValue(s, 0, ivl.Int).Bits != SlotValue(s, 5, ivl.Int).Bits {
			t.Errorf("sample %d not slot-uniform", s)
		}
	}
}

func TestVectorHashes(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	// Two ways to compute x*2 and an unrelated x+1.
	stmts := []ivl.Stmt{
		ivl.Assign(iv("d1"), ivl.Bin(ivl.Mul, ivl.IntVar("x"), ivl.C(2))),
		ivl.Assign(iv("d2"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.IntVar("x"))),
		ivl.Assign(iv("d3"), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.C(1))),
	}
	inputs := []ivl.Var{iv("x")}
	vals := func(s int, v ivl.Var) ivl.Value { return SlotValue(s, 0, ivl.Int) }
	fp, err := VectorHashes(stmts, inputs, vals, DefaultSamples)
	if err != nil {
		t.Fatal(err)
	}
	if fp["d1"] != fp["d2"] {
		t.Error("x*2 and x+x got different fingerprints")
	}
	if fp["d1"] == fp["d3"] {
		t.Error("x*2 and x+1 collided")
	}
}

func TestVectorHashesCatchesZeroOnlyDifference(t *testing.T) {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	// d1 = (x != 0), d2 = 1: differ only at x == 0; the special battery
	// must catch it.
	stmts := []ivl.Stmt{
		ivl.Assign(iv("d1"), ivl.Bin(ivl.Ne, ivl.IntVar("x"), ivl.C(0))),
		ivl.Assign(iv("d2"), ivl.Bin(ivl.Or, ivl.Bin(ivl.Ne, ivl.IntVar("x"), ivl.C(0)), ivl.C(1))),
	}
	vals := func(s int, v ivl.Var) ivl.Value { return SlotValue(s, 0, ivl.Int) }
	fp, err := VectorHashes(stmts, []ivl.Var{iv("x")}, vals, DefaultSamples)
	if err != nil {
		t.Fatal(err)
	}
	if fp["d1"] == fp["d2"] {
		t.Error("x!=0 vs constant-1 not distinguished (battery misses x=0)")
	}
}

func TestVectorHashesMemIntSeparation(t *testing.T) {
	ivn := func(n string, ty ivl.Type) ivl.Var { return ivl.Var{Name: n, Type: ty} }
	stmts := []ivl.Stmt{
		ivl.Assign(ivn("m1", ivl.Mem), ivl.StoreExpr{
			Mem: ivl.VarExpr{V: ivn("mem", ivl.Mem)}, Addr: ivl.IntVar("x"), Val: ivl.C(1), W: 8}),
		ivl.Assign(ivn("d1", ivl.Int), ivl.Bin(ivl.Add, ivl.IntVar("x"), ivl.C(0))),
	}
	inputs := []ivl.Var{ivn("mem", ivl.Mem), ivn("x", ivl.Int)}
	vals := func(s int, v ivl.Var) ivl.Value {
		if v.Type == ivl.Mem {
			return SlotValue(s, 0, ivl.Mem)
		}
		return SlotValue(s, 1, ivl.Int)
	}
	fp, err := VectorHashes(stmts, inputs, vals, DefaultSamples)
	if err != nil {
		t.Fatal(err)
	}
	if fp["m1"] == fp["d1"] {
		t.Error("memory and integer fingerprints collided")
	}
}
