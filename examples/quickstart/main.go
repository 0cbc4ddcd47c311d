// Quickstart: decide whether two syntactically different assembly
// procedures are semantically similar.
//
// The two procedures below compute the same checksum with different
// instruction selections and register allocations (shl vs imul, lea vs
// add, different scratch registers). The Esh engine ranks their
// similarity far above an unrelated string-scanning procedure.
//
// Run with: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/vcp"
)

const querySrc = `proc checksum_a
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

const similarSrc = `proc checksum_b
	mov r9, 0
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

const unrelatedSrc = `proc scan_bytes
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

// contextSrcs pad the database: the statistical layer estimates the
// random-match hypothesis H0 from the corpus, so a meaningful ranking
// needs more than two targets.
var contextSrcs = []string{
	"proc ctx_min\n\tmov rax, rdi\n\tcmp rsi, rdi\n\tcmovl rax, rsi\n\tmov rcx, rax\n\tadd rcx, 1\n\timul rcx, rsi\n\tret\nendp",
	"proc ctx_clamp\n\tmov rax, rdi\n\tcmp rax, 0x100\n\tjl ok\n\tmov rax, 0x100\nok:\n\tsub rax, rsi\n\tsar rax, 2\n\tret\nendp",
	"proc ctx_mix\n\tmov rax, rdi\n\tshl rax, 5\n\txor rax, rdi\n\tadd rax, rsi\n\tnot rax\n\tret\nendp",
	"proc ctx_load\n\tmov rax, qword [rdi]\n\tadd rax, qword [rdi+0x8]\n\timul rax, rsi\n\tmov qword [rdi+0x10], rax\n\tret\nendp",
	"proc ctx_poly\n\tmov rax, rdi\n\timul rax, rdi\n\tlea rax, [rax+rdi*2]\n\tadd rax, 7\n\tret\nendp",
	"proc ctx_swap\n\tmov rax, rdi\n\tand rax, 0xffff\n\tshl rax, 0x10\n\tmov rcx, rdi\n\tshr rcx, 0x10\n\tor rax, rcx\n\tret\nendp",
}

func main() {
	// 1. Build a target database. MinVars=3 keeps even the small strands
	// of these tiny demo procedures (the paper's default is 5).
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}})
	for _, src := range append([]string{similarSrc, unrelatedSrc}, contextSrcs...) {
		p, err := asm.ParseProc(src)
		if err != nil {
			log.Fatal(err)
		}
		if err := db.AddTarget(p); err != nil {
			log.Fatal(err)
		}
	}

	// 2. Query.
	q, err := asm.ParseProc(querySrc)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := db.Query(q)
	if err != nil {
		log.Fatal(err)
	}

	// 3. The report is ranked by GES, the paper's statistical
	// similarity: sum over query strands of the log likelihood-ratio
	// between the best semantic match in the target and the corpus-wide
	// random-match hypothesis.
	fmt.Printf("query %s decomposed into %d strands\n\n", rep.QueryName, rep.NumStrands)
	fmt.Printf("%-16s %10s %10s\n", "target", "GES", "S-LOG")
	for _, ts := range rep.Results {
		fmt.Printf("%-16s %10.3f %10.3f\n", ts.Target.Name, ts.GES, ts.SLOG)
	}
	if rep.Results[0].Target.Name != "checksum_b" {
		fmt.Println("\nunexpected ranking — see the scores above")
		return
	}
	fmt.Println("\nchecksum_b wins: the two procedures share almost every strand")
	fmt.Println("semantically, even though no instruction sequence matches.")
}
