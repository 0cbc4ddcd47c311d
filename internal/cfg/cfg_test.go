package cfg

import (
	"testing"

	"repro/internal/asm"
)

func mustParse(t *testing.T, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return p
}

func TestBuildStraightLine(t *testing.T) {
	p := mustParse(t, `proc f
	mov rax, rdi
	add rax, 1
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 1 {
		t.Fatalf("blocks = %d, want 1", len(g.Blocks))
	}
	if len(g.Blocks[0].Insts) != 3 {
		t.Fatalf("insts = %d, want 3", len(g.Blocks[0].Insts))
	}
	if g.NumEdges() != 0 {
		t.Errorf("edges = %d, want 0", g.NumEdges())
	}
}

func TestBuildDiamond(t *testing.T) {
	p := mustParse(t, `proc f
	test rdi, rdi
	jne elsebr
	mov rax, 1
	jmp done
elsebr:
	mov rax, 2
done:
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 4 {
		t.Fatalf("blocks = %d, want 4\n%s", len(g.Blocks), g)
	}
	// Entry has two successors: the else branch and fallthrough.
	if len(g.Blocks[0].Succs) != 2 {
		t.Fatalf("entry succs = %v", g.Blocks[0].Succs)
	}
	// done block has two predecessors.
	var done *Block
	for _, b := range g.Blocks {
		if b.Label == "done" {
			done = b
		}
	}
	if done == nil || len(done.Preds) != 2 {
		t.Fatalf("done block preds wrong: %+v", done)
	}
}

func TestBuildLoop(t *testing.T) {
	p := mustParse(t, `proc f
	xor rax, rax
top:
	add rax, rdi
	dec rdi
	test rdi, rdi
	jne top
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3\n%s", len(g.Blocks), g)
	}
}

func TestBuildMultiReturn(t *testing.T) {
	p := mustParse(t, `proc f
	test rdi, rdi
	je zero
	mov rax, 1
	ret
zero:
	xor rax, rax
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Blocks) != 3 {
		t.Fatalf("blocks = %d, want 3\n%s", len(g.Blocks), g)
	}
	if g.NumEdges() != 2 {
		t.Errorf("edges = %d, want 2", g.NumEdges())
	}
}

func TestBuildCallsCounted(t *testing.T) {
	p := mustParse(t, `proc f
	call g
	call h
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumCalls() != 2 {
		t.Errorf("calls = %d, want 2", g.NumCalls())
	}
	// Calls do not split blocks in this ISA.
	if len(g.Blocks) != 1 {
		t.Errorf("blocks = %d, want 1", len(g.Blocks))
	}
}

func TestBuildUnknownLabel(t *testing.T) {
	p := &asm.Proc{Name: "f", Insts: []asm.Inst{
		asm.MkJump("nowhere"), {Op: asm.RET},
	}}
	if _, err := Build(p); err == nil {
		t.Error("unknown label not reported")
	}
}

func TestBuildEmpty(t *testing.T) {
	if _, err := Build(&asm.Proc{Name: "empty"}); err == nil {
		t.Error("empty procedure not reported")
	}
}

func TestNoLabelInstructionsInBlocks(t *testing.T) {
	p := mustParse(t, `proc f
a:
b:
	mov rax, 1
	ret
endp`)
	g, err := Build(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range g.Blocks {
		for _, in := range b.Insts {
			if in.Op == asm.LABEL {
				t.Fatal("LABEL leaked into block")
			}
		}
	}
}
