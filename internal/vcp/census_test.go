package vcp_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/lift"
	"repro/internal/smt"
	"repro/internal/strand"
)

// TestLiftedStrandsRunBatched is the census behind the batched kernel
// being the only evaluator: every strand the lifter emits for the C1
// corpus (one toolchain per vendor, patched variants included) — block
// strands and the -pathlen 2 path strands of every procedure the path
// decomposition admits, counted before the size filter — compiles
// (CompileStrand refuses what the kernel cannot type), and its kernel
// fingerprints equal smt.VectorHashes', under the identity and the
// reversed slot assignment. VectorHashes walks the IVL with ivl.Eval and
// never touches CompileStrand, so this is the one corpus-wide check a
// compiler defect (a wrong operand, hoist or definition class) cannot
// slip past: every other differential compares the kernel with an
// interpreter of the same compiled code. FuzzQueryPipeline asserts the
// compile half of arbitrary text.
func TestLiftedStrandsRunBatched(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus census is slow")
	}
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5", "icc-15.0.1"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: true})
	if err != nil {
		t.Fatal(err)
	}
	const pathLen, pathMaxBlocks = 2, 12 // core.Options.PathMaxBlocks's default
	blocks, paths := 0, 0
	var kern smt.Kernel
	for _, p := range procs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			t.Fatal(err)
		}
		all := strand.FromProc(lp)
		blocks += len(all)
		if len(g.Blocks) <= pathMaxBlocks {
			pbs, err := lift.LiftPaths(g, pathLen)
			if err != nil {
				t.Fatal(err)
			}
			for _, pb := range pbs {
				ps := strand.FromBlock(p.Name, pb)
				paths += len(ps)
				all = append(all, ps...)
			}
		}
		for _, s := range all {
			prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
			if err != nil {
				t.Fatalf("%s: strand does not compile: %v", p.Name, err)
			}
			kern.Bind(prog, smt.DefaultSamples, 1)
			n := len(s.Inputs)
			identity, reversed := make([]int, n), make([]int, n)
			for i := range identity {
				identity[i], reversed[i] = i, n-1-i
			}
			for _, slots := range [][]int{identity, reversed} {
				slotOf := make(map[string]int, n)
				for i, in := range s.Inputs {
					slotOf[in.Name] = slots[i]
				}
				want, err := smt.VectorHashes(s.Stmts, s.Inputs, func(sample int, v ivl.Var) ivl.Value {
					return smt.SlotValue(sample, slotOf[v.Name], v.Type)
				}, smt.DefaultSamples)
				if err != nil {
					t.Fatalf("%s: ivl.Eval: %v", p.Name, err)
				}
				for d, h := range kern.Fingerprints(slots) {
					if dst := s.Stmts[d].Dst.Name; h != want[dst] {
						t.Fatalf("%s: slots %v, statement %d (%s): kernel %#x, ivl.Eval %#x",
							p.Name, slots, d, dst, h, want[dst])
					}
				}
			}
		}
	}
	t.Logf("%d procedures: %d block strands and %d path strands, all compiled and equal to ivl.Eval on the batched kernel", len(procs), blocks, paths)
}
