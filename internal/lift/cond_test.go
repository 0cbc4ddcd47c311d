package lift

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/ivl"
)

// Exhaustive differential coverage of condition recovery: every
// (flag-setter, condition-code) combination the lifter supports exactly
// must agree with the emulator on random and boundary operands.

type condCase struct {
	setter string // instruction text with %a/%b placeholders
	ccs    []asm.CC
}

func condCases() []condCase {
	allCCs := []asm.CC{asm.E, asm.NE, asm.L, asm.LE, asm.G, asm.GE,
		asm.B, asm.BE, asm.A, asm.AE, asm.S, asm.NS}
	logicCCs := allCCs // logic setters support every cc (some constant-fold)
	zsCCs := []asm.CC{asm.E, asm.NE, asm.S, asm.NS}
	return []condCase{
		{"cmp rdi, rsi", allCCs},
		{"cmp edi, esi", allCCs},
		{"test rdi, rsi", logicCCs},
		{"test edi, edi", logicCCs},
		{"and rdi, rsi", logicCCs},
		{"or rdi, rsi", logicCCs},
		{"xor rdi, rsi", logicCCs},
		{"inc rdi", zsCCs},
		{"dec rdi", zsCCs},
		{"neg rdi", allCCs},
		{"imul rdi, rsi", zsCCs},
		{"shl rdi, 3", zsCCs},
		{"sar rdi, 2", zsCCs},
	}
}

func TestConditionRecoveryMatchesEmulator(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	boundary := []uint64{0, 1, ^uint64(0), 0x7FFF_FFFF_FFFF_FFFF,
		0x8000_0000_0000_0000, 0x8000_0000, 0x7FFF_FFFF, 16}
	for _, tc := range condCases() {
		for _, cc := range tc.ccs {
			src := fmt.Sprintf("proc f\n\t%s\n\tset%s al\n\tmovzx eax, al\n\tret\nendp", tc.setter, cc)
			p, err := asm.ParseProc(src)
			if err != nil {
				t.Fatalf("%s: %v", src, err)
			}
			for trial := 0; trial < 24; trial++ {
				var a, b uint64
				if trial < len(boundary) {
					a = boundary[trial]
					b = boundary[(trial+3)%len(boundary)]
				} else {
					a, b = rng.Uint64(), rng.Uint64()
				}

				m := asm.NewMachine()
				m.AddProc(p)
				m.Regs[asm.RDI] = a
				m.Regs[asm.RSI] = b
				want, err := m.Run("f")
				if err != nil {
					t.Fatal(err)
				}

				env, lb := evalBlock(t, src, map[asm.Reg]uint64{asm.RDI: a, asm.RSI: b})
				got, ok := lastRegValue(env, lb, asm.RAX)
				if !ok {
					t.Fatalf("%s %v: rax not defined", tc.setter, cc)
				}
				if got != want {
					t.Fatalf("set%s after %q with a=%#x b=%#x: lifted %d, emulator %d\n%s",
						cc, tc.setter, a, b, got, want, dumpStmts(lb.Stmts))
				}
			}
		}
	}
}

func dumpStmts(stmts []ivl.Stmt) string {
	out := ""
	for _, s := range stmts {
		out += "\t" + s.String() + "\n"
	}
	return out
}

// TestCmovRecoveryMatchesEmulator covers the cmov consumer the same way.
func TestCmovRecoveryMatchesEmulator(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for _, cc := range []asm.CC{asm.E, asm.L, asm.GE, asm.B, asm.A} {
		src := fmt.Sprintf(
			"proc f\n\tmov rax, rdi\n\tcmp rdi, rsi\n\tcmov%s rax, rsi\n\tret\nendp", cc)
		p, err := asm.ParseProc(src)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 30; trial++ {
			a, b := rng.Uint64(), rng.Uint64()
			if trial%3 == 0 {
				b = a // exercise the equality boundary
			}
			m := asm.NewMachine()
			m.AddProc(p)
			m.Regs[asm.RDI] = a
			m.Regs[asm.RSI] = b
			want, err := m.Run("f")
			if err != nil {
				t.Fatal(err)
			}
			env, lb := evalBlock(t, src, map[asm.Reg]uint64{asm.RDI: a, asm.RSI: b})
			got, ok := lastRegValue(env, lb, asm.RAX)
			if !ok || got != want {
				t.Fatalf("cmov%s a=%#x b=%#x: lifted %d (ok=%v), emulator %d", cc, a, b, got, ok, want)
			}
		}
	}
}

// TestJccConditionValueMatchesEmulator checks that the materialized
// branch-condition temporary agrees with the emulator's branch decision.
func TestJccConditionValueMatchesEmulator(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, cc := range []asm.CC{asm.E, asm.NE, asm.L, asm.GE, asm.B, asm.AE, asm.S} {
		src := fmt.Sprintf(`proc f
	cmp rdi, rsi
	j%s yes
	mov rax, 0
	ret
yes:
	mov rax, 1
	ret
endp`, cc)
		p, err := asm.ParseProc(src)
		if err != nil {
			t.Fatal(err)
		}
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lb, err := LiftBlock(g.Blocks[0], nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(lb.Stmts) == 0 {
			t.Fatal("empty lifted block")
		}
		condVar := lb.Stmts[len(lb.Stmts)-1].Dst

		for trial := 0; trial < 30; trial++ {
			a, b := rng.Uint64(), rng.Uint64()
			if trial%4 == 0 {
				b = a
			}
			m := asm.NewMachine()
			m.AddProc(p)
			m.Regs[asm.RDI] = a
			m.Regs[asm.RSI] = b
			want, err := m.Run("f")
			if err != nil {
				t.Fatal(err)
			}

			env := ivl.Env{}
			for _, v := range lb.Inputs {
				switch v.Name {
				case "rdi_0":
					env[v.Name] = ivl.IntValue(a)
				case "rsi_0":
					env[v.Name] = ivl.IntValue(b)
				default:
					env[v.Name] = ivl.IntValue(0)
				}
			}
			if err := ivl.RunStmts(lb.Stmts, env); err != nil {
				t.Fatal(err)
			}
			if env[condVar.Name].Bits != want {
				t.Fatalf("j%s a=%#x b=%#x: condition %d, emulator took %d",
					cc, a, b, env[condVar.Name].Bits, want)
			}
		}
	}
}
