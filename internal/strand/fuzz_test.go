package strand

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/lift"
	"repro/internal/smt"
)

// maxStmtsPerInst bounds the IVL statements the lifter emits for one
// instruction. The widest case is an ALU instruction on two memory
// operands of a narrow width: two loads behind two three-step address
// computations, the operation, its truncation, and a store behind a third
// address — 14 statements.
const maxStmtsPerInst = 16

// FuzzQueryPipeline runs what the body of POST /v1/query and POST
// /v1/targets reaches before any engine state — asm.Parse → cfg.Build →
// lift.LiftProc → strand.FromProc, and each strand's canonical key — on
// arbitrary text. Any stage may refuse the input; none may panic, and
// what comes out is bounded by the instruction count I of the procedure:
// each block of I_b instructions lifts to at most maxStmtsPerInst·I_b
// statements, and decomposes into at most that many strands of at most
// that many statements each — so a procedure yields at most
// maxStmtsPerInst·I strands. Every strand must compile: smt.CompileStrand
// refuses a program the batched kernel, the only evaluator, cannot type.
// The seed corpus (testdata/fuzz) holds procedures of the test-bed
// corpus.
func FuzzQueryPipeline(f *testing.F) {
	f.Add("proc p\n\tmov rax, rdi\n\tadd rax, 1\n\tret\nendp\n")
	f.Fuzz(func(t *testing.T, src string) {
		procs, err := asm.Parse(src)
		if err != nil {
			return
		}
		for _, p := range procs {
			g, err := cfg.Build(p)
			if err != nil {
				continue
			}
			lp, err := lift.LiftProc(g)
			if err != nil {
				continue
			}
			if len(lp.Blocks) != len(g.Blocks) {
				t.Fatalf("%s: %d blocks lift to %d", p.Name, len(g.Blocks), len(lp.Blocks))
			}
			insts, total := 0, 0
			for bi, b := range lp.Blocks {
				n := len(b.Stmts)
				if limit := maxStmtsPerInst * len(g.Blocks[bi].Insts); n > limit {
					t.Fatalf("%s block %d: %d instructions lift to %d statements, bound %d", p.Name, bi, len(g.Blocks[bi].Insts), n, limit)
				}
				strands := FromBlock(p.Name, b)
				if len(strands) > n {
					t.Fatalf("%s block %d: %d statements decompose into %d strands", p.Name, bi, n, len(strands))
				}
				for _, s := range strands {
					if len(s.Stmts) == 0 || len(s.Stmts) > n {
						t.Fatalf("%s block %d: a strand of %d statements from a block of %d", p.Name, bi, len(s.Stmts), n)
					}
					if s.CanonicalKey() == "" {
						t.Fatalf("%s block %d: empty canonical key", p.Name, bi)
					}
					if _, err := smt.CompileStrand(s.Stmts, s.Inputs); err != nil {
						t.Fatalf("%s block %d: strand does not compile for the batched kernel: %v", p.Name, bi, err)
					}
				}
				insts += len(g.Blocks[bi].Insts)
				total += len(strands)
			}
			if insts > p.NumInsts() || total > maxStmtsPerInst*p.NumInsts() {
				t.Fatalf("%s: %d instructions, %d in blocks, %d strands", p.Name, p.NumInsts(), insts, total)
			}
			if got := len(FromProc(lp)); got != total {
				t.Fatalf("%s: FromProc gives %d strands, the blocks %d", p.Name, got, total)
			}
		}
	})
}
