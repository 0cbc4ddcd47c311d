package vcp

import (
	"math/rand"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// Property tests over generated strands. The generator is seeded, so
// failures reproduce; it covers the shapes the lifter actually emits
// (mixed Int/Mem inputs, nested arithmetic, loads and stores) plus
// degenerate ones (no inputs, single statement). The properties are the
// contracts the rest of the engine builds on — in particular stage 3 of
// a query (internal/core) skips verifier work exactly when the
// typed-input injection property guarantees a zero.

// genStrand returns a random well-formed SSA strand: every variable
// reference is an input or an earlier definition, and Mem-typed values
// only flow through load/store.
func genStrand(r *rand.Rand) *strand.Strand {
	s := &strand.Strand{ProcName: "gen"}
	nInt := 1 + r.Intn(3)
	for i := 0; i < nInt; i++ {
		s.Inputs = append(s.Inputs, ivl.Var{Name: "x" + string(rune('a'+i)), Type: ivl.Int})
	}
	var mem *ivl.Var
	if r.Intn(2) == 0 {
		m := ivl.Var{Name: "m", Type: ivl.Mem}
		s.Inputs = append(s.Inputs, m)
		mem = &m
	}

	ints := make([]ivl.Var, 0, 8)
	for _, in := range s.Inputs {
		if in.Type == ivl.Int {
			ints = append(ints, in)
		}
	}
	ops := []ivl.BinOp{ivl.Add, ivl.Sub, ivl.Mul, ivl.Xor, ivl.And, ivl.Or, ivl.Shl, ivl.LShr, ivl.ULt}
	var gen func(depth int) ivl.Expr
	gen = func(depth int) ivl.Expr {
		switch {
		case depth <= 0 || r.Intn(4) == 0:
			if r.Intn(3) == 0 {
				return ivl.C(uint64(r.Intn(64)))
			}
			return ivl.V(ints[r.Intn(len(ints))])
		case mem != nil && r.Intn(5) == 0:
			return ivl.LoadExpr{Mem: ivl.V(*mem), Addr: gen(depth - 1), W: 8}
		default:
			op := ops[r.Intn(len(ops))]
			return ivl.Bin(op, gen(depth-1), gen(depth-1))
		}
	}
	nStmts := 1 + r.Intn(5)
	for i := 0; i < nStmts; i++ {
		dst := ivl.Var{Name: "v" + string(rune('0'+i)), Type: ivl.Int}
		s.Stmts = append(s.Stmts, ivl.Assign(dst, gen(2)))
		ints = append(ints, dst)
	}
	return s
}

func typedInputCounts(s *strand.Strand) (nInt, nMem int) {
	for _, v := range s.Inputs {
		if v.Type == ivl.Mem {
			nMem++
		} else {
			nInt++
		}
	}
	return
}

func TestVCPProperties(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	cfg := Default()
	const n = 20
	preps := make([]*Prepared, n)
	for i := range preps {
		s := genStrand(r)
		preps[i] = Prepare(s, cfg)
		if err := preps[i].Err(); err != nil {
			t.Fatalf("prepare generated strand %d: %v", i, err)
		}
	}

	// Reflexivity: every strand fully matches itself under the identity
	// correspondence.
	for i, p := range preps {
		if v := Compute(p, p, cfg); v != 1 {
			t.Errorf("strand %d: VCP(s, s) = %v, want 1", i, v)
		}
	}

	for i, q := range preps {
		for j, u := range preps {
			v, st := ComputeWithStats(q, u, cfg)

			// Range: VCP is a fraction of q's variables.
			if v < 0 || v > 1 {
				t.Fatalf("pair (%d,%d): VCP = %v outside [0,1]", i, j, v)
			}

			// Work accounting: the γ enumeration respects its cap, and
			// Compute agrees with ComputeWithStats.
			if st.Correspondences < 0 || st.Correspondences > cfg.MaxCorrespondences {
				t.Fatalf("pair (%d,%d): %d correspondences, cap %d",
					i, j, st.Correspondences, cfg.MaxCorrespondences)
			}
			if v2 := Compute(q, u, cfg); v2 != v {
				t.Fatalf("pair (%d,%d): Compute %v != ComputeWithStats %v", i, j, v2, v)
			}

			// Determinism: bit-identical on repetition. KernelNanos is
			// wall time and is excluded from the comparison.
			if v2, st2 := ComputeWithStats(q, u, cfg); v2 != v || st2.Correspondences != st.Correspondences {
				t.Fatalf("pair (%d,%d): not deterministic: (%v,%+v) then (%v,%+v)",
					i, j, v, st, v2, st2)
			}

			// Typed-input injection — the sound-tier contract: when
			// q's typed inputs cannot inject into u's, VCP is exactly 0
			// with no verifier work; when they can, at least one
			// correspondence is always tried.
			qi, qm := typedInputCounts(q.S)
			ui, um := typedInputCounts(u.S)
			if qi > ui || qm > um {
				if v != 0 || st.Correspondences != 0 {
					t.Fatalf("pair (%d,%d): inputs (%d,%d) cannot inject into (%d,%d) but VCP=%v after %d correspondences",
						i, j, qi, qm, ui, um, v, st.Correspondences)
				}
			} else if st.Correspondences == 0 {
				t.Fatalf("pair (%d,%d): injectable inputs but no correspondence tried", i, j)
			}
		}
	}
}

func TestVCPPropertiesNoInputs(t *testing.T) {
	// A strand of pure constants has no inputs; γ is the empty map and
	// the strand must still fully match itself.
	s := &strand.Strand{
		ProcName: "const",
		Stmts: []ivl.Stmt{
			ivl.Assign(ivl.Var{Name: "v0", Type: ivl.Int}, ivl.C(42)),
			ivl.Assign(ivl.Var{Name: "v1", Type: ivl.Int}, ivl.Bin(ivl.Add, ivl.IntVar("v0"), ivl.C(1))),
		},
	}
	p := Prepare(s, Default())
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	if v := Compute(p, p, Default()); v != 1 {
		t.Fatalf("VCP(const, const) = %v, want 1", v)
	}
}

// TestAcceptedPairsHoldOffTheBattery is the one check that looks outside
// the sample battery: a one-definition pair that is equivalent by
// construction (x*2 + (y-c) against (y + -c) + (x<<1); x and y are the
// same input in half the trials) must score 1, the same pair broken by a
// small added constant must score 0, and whatever the engine accepts
// must also agree under ivl.Eval on fresh random inputs. It fails if
// the battery or the fingerprint fold ever accepts a broken pair.
func TestAcceptedPairsHoldOffTheBattery(t *testing.T) {
	rng := rand.New(rand.NewSource(123))
	cfg := Config{MinVars: 1}
	names := [2][2]string{{"qx", "qy"}, {"tx", "ty"}}
	for trial := 0; trial < 200; trial++ {
		broken := trial%2 == 1
		nIn := 1 + rng.Intn(2)
		c := uint64(rng.Intn(64) + 1)
		x := func(side int) ivl.Expr { return ivl.IntVar(names[side][0]) }
		y := func(side int) ivl.Expr { return ivl.IntVar(names[side][nIn-1]) }
		qExpr := ivl.Bin(ivl.Add, ivl.Bin(ivl.Mul, x(0), ivl.C(2)), ivl.Bin(ivl.Sub, y(0), ivl.C(c)))
		tExpr := ivl.Bin(ivl.Add, ivl.Bin(ivl.Add, y(1), ivl.C(-c)), ivl.Bin(ivl.Shl, x(1), ivl.C(1)))
		if broken {
			tExpr = ivl.Bin(ivl.Add, tExpr, ivl.C(uint64(rng.Intn(5)+1)))
		}
		q := mkStrand(names[0][:nIn], ivl.Assign(iv("qv"), qExpr))
		tg := mkStrand(names[1][:nIn], ivl.Assign(iv("tv"), tExpr))
		pq, pt := Prepare(q, cfg), Prepare(tg, cfg)
		if pq.Err() != nil || pt.Err() != nil {
			t.Fatalf("trial %d: Prepare: %v, %v", trial, pq.Err(), pt.Err())
		}
		got := Compute(pq, pt, cfg)
		if got == 1 {
			for check := 0; check < 50; check++ {
				env := ivl.Env{}
				for i := 0; i < nIn; i++ {
					v := ivl.IntValue(rng.Uint64())
					env[names[0][i]], env[names[1][i]] = v, v
				}
				qv, err1 := ivl.Eval(qExpr, env)
				tv, err2 := ivl.Eval(tExpr, env)
				if err1 != nil || err2 != nil {
					t.Fatalf("trial %d: eval: %v, %v", trial, err1, err2)
				}
				if qv.Bits != tv.Bits {
					t.Fatalf("trial %d: accepted, but %s = %#x and %s = %#x on %v",
						trial, qExpr, qv.Bits, tExpr, tv.Bits, env)
				}
			}
		}
		want := 1.0
		if broken {
			want = 0
		}
		if got != want {
			t.Fatalf("trial %d (broken=%v): VCP = %v, want %v", trial, broken, got, want)
		}
	}
}
