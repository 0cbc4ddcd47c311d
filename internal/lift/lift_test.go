package lift

import (
	"math/rand"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/ivl"
)

func liftSrc(t *testing.T, src string) *Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatalf("cfg: %v", err)
	}
	lp, err := LiftProc(g)
	if err != nil {
		t.Fatalf("lift: %v", err)
	}
	return lp
}

func TestLiftSSAForm(t *testing.T) {
	lp := liftSrc(t, `proc f
	mov rax, rdi
	add rax, 3
	add rax, rsi
	ret
endp`)
	b := lp.Blocks[0]
	defined := map[string]bool{}
	for _, s := range b.Stmts {
		if defined[s.Dst.Name] {
			t.Fatalf("variable %q defined twice (not SSA)", s.Dst.Name)
		}
		defined[s.Dst.Name] = true
		// every referenced variable is either defined earlier or an input
		for _, v := range ivl.FreeVars(s.Rhs) {
			if !defined[v.Name] && !isInput(b, v.Name) {
				t.Fatalf("variable %q used before definition", v.Name)
			}
		}
	}
}

func isInput(b *Block, name string) bool {
	for _, v := range b.Inputs {
		if v.Name == name {
			return true
		}
	}
	return false
}

func TestLiftInputs(t *testing.T) {
	lp := liftSrc(t, `proc f
	add rdi, rsi
	mov rax, rdi
	ret
endp`)
	b := lp.Blocks[0]
	want := map[string]bool{"rdi_0": true, "rsi_0": true}
	if len(b.Inputs) != 2 {
		t.Fatalf("inputs = %v", b.Inputs)
	}
	for _, v := range b.Inputs {
		if !want[v.Name] {
			t.Errorf("unexpected input %q", v.Name)
		}
	}
}

func TestLiftMemoryInput(t *testing.T) {
	lp := liftSrc(t, `proc f
	mov rax, qword [rdi+0x8]
	ret
endp`)
	b := lp.Blocks[0]
	foundMem := false
	for _, v := range b.Inputs {
		if v.Type == ivl.Mem {
			foundMem = true
		}
	}
	if !foundMem {
		t.Errorf("memory not recorded as block input: %v", b.Inputs)
	}
}

func TestLiftStoreCreatesNewMem(t *testing.T) {
	lp := liftSrc(t, `proc f
	mov qword [rdi], rsi
	mov qword [rdi+0x8], rdx
	ret
endp`)
	memDefs := 0
	for _, s := range lp.Blocks[0].Stmts {
		if s.Dst.Type == ivl.Mem {
			memDefs++
		}
	}
	if memDefs != 2 {
		t.Errorf("memory SSA defs = %d, want 2", memDefs)
	}
}

func TestCallArities(t *testing.T) {
	p, err := asm.ParseProc(`proc f
	mov rdi, rax
	mov rsi, rbx
	call two_args
	mov rdi, rax
	call one_arg
	call zero_args
	ret
endp`)
	if err != nil {
		t.Fatal(err)
	}
	got := callArities(p)
	want := []int{2, 1, 0}
	if len(got) != len(want) {
		t.Fatalf("arities = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("arity[%d] = %d, want %d", i, got[i], want[i])
		}
	}
}

func TestCallAritiesPrefixRule(t *testing.T) {
	// rsi written but rdi not: arity 0 (prefix broken).
	p, _ := asm.ParseProc(`proc f
	mov rsi, rax
	call g
	ret
endp`)
	if got := callArities(p); got[0] != 0 {
		t.Errorf("broken prefix arity = %d, want 0", got[0])
	}
	// 32-bit writes count.
	p, _ = asm.ParseProc(`proc f
	mov edi, 5
	call g
	ret
endp`)
	if got := callArities(p); got[0] != 1 {
		t.Errorf("32-bit arg write arity = %d, want 1", got[0])
	}
}

func TestLiftCallUninterpreted(t *testing.T) {
	lp := liftSrc(t, `proc f
	mov rdi, rbx
	call g
	add rax, 1
	ret
endp`)
	var call, callmem bool
	for _, s := range lp.Blocks[0].Stmts {
		if ce, ok := s.Rhs.(ivl.CallExpr); ok {
			switch ce.Sym {
			case "call/1":
				call = true
				if len(ce.Args) != 1 {
					t.Errorf("call/1 args = %d", len(ce.Args))
				}
			case "callmem/1":
				callmem = true
				if len(ce.Args) != 2 {
					t.Errorf("callmem/1 args = %d (want arg + mem)", len(ce.Args))
				}
			}
		}
	}
	if !call || !callmem {
		t.Errorf("call=%v callmem=%v; expected both", call, callmem)
	}
}

func TestLiftConditionFromCmp(t *testing.T) {
	lp := liftSrc(t, `proc f
	cmp rdi, rsi
	jl less
	mov rax, 1
	ret
less:
	mov rax, 2
	ret
endp`)
	// The first block must contain a signed-less condition.
	found := false
	for _, s := range lp.Blocks[0].Stmts {
		if be, ok := s.Rhs.(ivl.BinExpr); ok && be.Op == ivl.SLt {
			found = true
		}
	}
	if !found {
		t.Errorf("jl after cmp did not lift to SLt:\n%v", lp.Blocks[0].Stmts)
	}
}

func TestLiftConditionNoSetter(t *testing.T) {
	b := &cfg.Block{Insts: []asm.Inst{asm.MkJcc(asm.E, "x")}}
	if _, err := LiftBlock(b, nil); err == nil {
		t.Error("jcc without flag setter not rejected")
	}
}

// evalBlock lifts one block of asm and evaluates its IVL against initial
// register values, returning the final value of every register var.
func evalBlock(t *testing.T, src string, init map[asm.Reg]uint64) (ivl.Env, *Block) {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := LiftBlock(g.Blocks[0], callArities(p))
	if err != nil {
		t.Fatal(err)
	}
	env := ivl.Env{}
	for _, v := range lb.Inputs {
		if v.Type == ivl.Mem {
			env[v.Name] = ivl.MemValue(ivl.NewMem(12345))
			continue
		}
		reg := regFromInputName(v.Name)
		env[v.Name] = ivl.IntValue(init[reg])
	}
	if err := ivl.RunStmts(lb.Stmts, env); err != nil {
		t.Fatalf("RunStmts: %v", err)
	}
	return env, lb
}

func regFromInputName(name string) asm.Reg {
	for r := asm.Reg(0); r < asm.NumRegs; r++ {
		if r.Name(asm.Width8)+"_0" == name {
			return r
		}
	}
	return asm.RAX
}

// lastRegValue finds the final SSA value of a register in the lifted block.
func lastRegValue(env ivl.Env, lb *Block, reg asm.Reg) (uint64, bool) {
	name := ""
	prefix := reg.Name(asm.Width8) + "_"
	for _, s := range lb.Stmts {
		if s.Dst.Type == ivl.Int &&
			len(s.Dst.Name) > len(prefix) && s.Dst.Name[:len(prefix)] == prefix {
			name = s.Dst.Name
		}
	}
	if name == "" {
		return 0, false
	}
	v, ok := env[name]
	return v.Bits, ok
}

// TestLiftMatchesEmulator runs random register-only blocks through both
// the emulator and the lifted IVL and compares final register values.
func TestLiftMatchesEmulator(t *testing.T) {
	blocks := []string{
		"proc f\n\tmov rax, rdi\n\tadd rax, rsi\n\tret\nendp",
		"proc f\n\tlea rax, [rdi+rsi*4+0x10]\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\tshl rax, 3\n\tsub rax, rsi\n\tret\nendp",
		"proc f\n\tmov eax, edi\n\tadd eax, esi\n\tret\nendp",
		"proc f\n\tmovzx eax, dil\n\tret\nendp",
		"proc f\n\tmovsx rax, dil\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\txor rax, rsi\n\tnot rax\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\tneg rax\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\tsar rax, 5\n\tret\nendp",
		"proc f\n\tmov eax, edi\n\tsar eax, 5\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\timul rax, rsi\n\tret\nendp",
		"proc f\n\tmov rax, rdi\n\tinc rax\n\tdec rax\n\tdec rax\n\tret\nendp",
		"proc f\n\tcmp rdi, rsi\n\tsetl al\n\tmovzx eax, al\n\tret\nendp",
		"proc f\n\tcmp rdi, rsi\n\tsetb al\n\tmovzx eax, al\n\tret\nendp",
		"proc f\n\ttest rdi, rdi\n\tsete al\n\tmovzx eax, al\n\tret\nendp",
		"proc f\n\tcmp edi, esi\n\tsetle al\n\tmovzx eax, al\n\tret\nendp",
		"proc f\n\tmov rax, rsi\n\tcmp rdi, 0x10\n\tcmovge rax, rdi\n\tret\nendp",
		"proc f\n\tmov al, dil\n\tret\nendp", // partial-width merge
		"proc f\n\tmov rax, rdi\n\tcqo\n\tret\nendp",
	}
	rng := rand.New(rand.NewSource(7))
	for _, src := range blocks {
		for trial := 0; trial < 25; trial++ {
			init := map[asm.Reg]uint64{
				asm.RDI: rng.Uint64(),
				asm.RSI: rng.Uint64(),
				asm.RAX: rng.Uint64(),
			}
			if trial == 0 {
				init = map[asm.Reg]uint64{asm.RDI: 0, asm.RSI: 0, asm.RAX: 0}
			}

			// emulator
			p, err := asm.ParseProc(src)
			if err != nil {
				t.Fatal(err)
			}
			m := asm.NewMachine()
			m.AddProc(p)
			for r, v := range init {
				m.Regs[r] = v
			}
			if _, err := m.Run("f"); err != nil {
				t.Fatalf("%s: emulate: %v", src, err)
			}

			// lifted IVL
			env, lb := evalBlock(t, src, init)
			for _, reg := range []asm.Reg{asm.RAX, asm.RDX} {
				got, ok := lastRegValue(env, lb, reg)
				if !ok {
					continue // register not written by the block
				}
				if got != m.Regs[reg] {
					t.Errorf("%s\ninit=%v: lifted %s = %#x, emulator = %#x",
						src, init, reg, got, m.Regs[reg])
					break
				}
			}
		}
	}
}

// TestLiftMemoryMatchesEmulator aligns the IVL memory background with the
// emulator's memory and checks a load/store block agrees.
func TestLiftMemoryMatchesEmulator(t *testing.T) {
	src := `proc f
	mov rax, qword [rdi]
	add rax, qword [rdi+0x8]
	mov qword [rdi+0x10], rax
	mov rdx, qword [rdi+0x10]
	ret
endp`
	const base = 0x2000
	bg := ivl.NewMem(99)

	p, _ := asm.ParseProc(src)
	m := asm.NewMachine()
	m.AddProc(p)
	m.Regs[asm.RDI] = base
	// Seed the emulator with the IVL background for the touched window.
	for off := uint64(0); off < 0x40; off++ {
		m.WriteMem(base+off, asm.Width1, bg.Load(base+off, 1))
	}
	if _, err := m.Run("f"); err != nil {
		t.Fatal(err)
	}

	g, _ := cfg.Build(p)
	lb, err := LiftBlock(g.Blocks[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	env := ivl.Env{}
	for _, v := range lb.Inputs {
		if v.Type == ivl.Mem {
			env[v.Name] = ivl.MemValue(bg)
		} else {
			env[v.Name] = ivl.IntValue(base)
		}
	}
	if err := ivl.RunStmts(lb.Stmts, env); err != nil {
		t.Fatalf("RunStmts: %v", err)
	}
	for _, reg := range []asm.Reg{asm.RAX, asm.RDX} {
		got, ok := lastRegValue(env, lb, reg)
		if !ok {
			t.Fatalf("%v not written", reg)
		}
		if got != m.Regs[reg] {
			t.Errorf("lifted %v = %#x, emulator = %#x", reg, got, m.Regs[reg])
		}
	}
}

// TestLiftTempPerOperation checks the paper's granularity convention:
// compound address computations decompose into one temp per operation.
func TestLiftTempPerOperation(t *testing.T) {
	lp := liftSrc(t, `proc f
	lea rax, [rdi+rsi*8+0x20]
	ret
endp`)
	temps := 0
	for _, s := range lp.Blocks[0].Stmts {
		if s.Dst.Name[0] == 'v' {
			temps++
		}
	}
	// mul, add base, add disp => 3 temps.
	if temps != 3 {
		t.Errorf("temps = %d, want 3:\n%v", temps, lp.Blocks[0].Stmts)
	}
}

func TestLiftDeterministic(t *testing.T) {
	src := `proc f
	mov rax, qword [rdi]
	add rax, rsi
	mov qword [rdi], rax
	ret
endp`
	a := liftSrc(t, src)
	b := liftSrc(t, src)
	if len(a.Blocks[0].Stmts) != len(b.Blocks[0].Stmts) {
		t.Fatal("lift not deterministic in statement count")
	}
	for i := range a.Blocks[0].Stmts {
		if a.Blocks[0].Stmts[i].String() != b.Blocks[0].Stmts[i].String() {
			t.Fatalf("lift not deterministic at stmt %d", i)
		}
	}
}

func TestXorZeroIdiom(t *testing.T) {
	// "xor eax, eax" must lift to a constant zero with no dependence on
	// the old register value (so it is not a spurious block input).
	lp := liftSrc(t, "proc f\n\txor eax, eax\n\tret\nendp")
	b := lp.Blocks[0]
	if len(b.Inputs) != 0 {
		t.Errorf("xor-zero created inputs: %v", b.Inputs)
	}
	found := false
	for _, s := range b.Stmts {
		if c, ok := s.Rhs.(ivl.ConstExpr); ok && c.Val == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no constant-zero assignment:\n%v", b.Stmts)
	}
	// Flags from the idiom still feed a following branch correctly
	// (ZF=1): "xor eax,eax; je taken" must lift without error.
	lp = liftSrc(t, "proc g\n\txor eax, eax\n\tje out\n\tmov rax, 1\nout:\n\tret\nendp")
	if len(lp.Blocks) == 0 {
		t.Fatal("no blocks")
	}
}

func TestLiftPaths(t *testing.T) {
	src := `proc f
	test rdi, rdi
	jne big
	mov rax, 1
	jmp done
big:
	lea rax, [rdi+rdi*2]
done:
	add rax, rsi
	ret
endp`
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	paths, err := LiftPaths(g, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 2-paths: entry->then, entry->big, then->done, big->done = 4.
	if len(paths) != 4 {
		t.Fatalf("paths = %d, want 4", len(paths))
	}
	for _, pb := range paths {
		if len(pb.Stmts) == 0 {
			t.Error("empty path block")
		}
		// SSA holds across the concatenation.
		defined := map[string]bool{}
		inputSet := map[string]bool{}
		for _, v := range pb.Inputs {
			inputSet[v.Name] = true
		}
		for _, s := range pb.Stmts {
			if defined[s.Dst.Name] {
				t.Fatalf("path block not SSA: %s", s.Dst.Name)
			}
			defined[s.Dst.Name] = true
			for _, v := range ivl.FreeVars(s.Rhs) {
				if !defined[v.Name] && !inputSet[v.Name] {
					t.Fatalf("undefined %s in path block", v.Name)
				}
			}
		}
	}
	if _, err := LiftPaths(g, 1); err == nil {
		t.Error("k=1 accepted")
	}
}
