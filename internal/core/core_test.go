package core

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// Two compilations of the same source (different instruction selection
// and registers) and one unrelated procedure.
const gccStyle = `proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	mov r8, rax
	and r8, 0xff
	add rax, r8
	ret
endp`

const iccStyle = `proc checksum_icc
	xor r9d, r9d
	mov r10, rdi
	mov r11, rsi
	imul r11, 3
	imul r11, 4
	add r11, 0x20
	imul r10, r11
	mov rax, r10
	shr rax, 7
	xor rax, r10
	mov rbx, rax
	and rbx, 0xff
	add rax, rbx
	ret
endp`

const unrelated = `proc strlen_like
	xor eax, eax
	mov rdx, rdi
top:
	movzx ecx, byte [rdx]
	test rcx, rcx
	je done
	add rdx, 1
	add rax, 1
	cmp rax, 0x1000
	jb top
done:
	ret
endp`

func parse(t *testing.T, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{iccStyle, unrelated} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func TestQueryRanksSimilarFirst(t *testing.T) {
	db := buildDB(t)
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Results) != 2 {
		t.Fatalf("results = %d", len(rep.Results))
	}
	if rep.Results[0].Target.Name != "checksum_icc" {
		t.Fatalf("top result = %s, want checksum_icc (GES %v vs %v)",
			rep.Results[0].Target.Name, rep.Results[0].GES, rep.Results[1].GES)
	}
	if rep.Results[0].GES <= rep.Results[1].GES {
		t.Error("similar target does not outscore unrelated")
	}
	// S-LOG ranks it first here too (clean two-target case).
	if ranked := rep.Rank(stats.SLOG); ranked[0].Target.Name != "checksum_icc" {
		t.Errorf("S-LOG ranks %s first", ranked[0].Target.Name)
	}
}

func TestQueryDeterministic(t *testing.T) {
	db := buildDB(t)
	r1, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Results {
		if r1.Results[i].GES != r2.Results[i].GES {
			t.Fatal("query not deterministic")
		}
	}
}

func TestSelfQueryWins(t *testing.T) {
	db := NewDB(Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range []string{gccStyle, iccStyle, unrelated} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := db.Query(parse(t, gccStyle))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Results[0].Target.Name != "checksum_gcc" {
		t.Errorf("self not ranked first: %s", rep.Results[0].Target.Name)
	}
	// The cross-compiled variant ranks above the unrelated procedure.
	if rep.Results[1].Target.Name != "checksum_icc" {
		t.Errorf("cross-compiled variant not second: %s", rep.Results[1].Target.Name)
	}
}

func TestDBStats(t *testing.T) {
	db := buildDB(t)
	if db.NumTargets() != 2 {
		t.Errorf("NumTargets = %d", db.NumTargets())
	}
	if db.NumUniqueStrands() == 0 || db.TotalStrands() < db.NumUniqueStrands() {
		t.Errorf("strand counts inconsistent: uniq=%d total=%d",
			db.NumUniqueStrands(), db.TotalStrands())
	}
	for _, tgt := range db.Targets() {
		if tgt.NumBlocks == 0 {
			t.Errorf("target %s has no blocks", tgt.Name)
		}
	}
}

func TestAddTargetBadProc(t *testing.T) {
	db := NewDB(Options{})
	err := db.AddTarget(&asm.Proc{Name: "empty"})
	if err == nil {
		t.Error("empty procedure indexed without error")
	}
}
