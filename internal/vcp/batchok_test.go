package vcp_test

import (
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/lift"
	"repro/internal/smt"
	"repro/internal/strand"
)

// TestLiftedStrandsRunBatched is the census behind Prepare's and
// Evaluator.Reset's scalar fallback: every strand the lifter emits for
// the C1 corpus (one toolchain per vendor, patched variants included) —
// block strands and the -pathlen 2 path strands of every procedure the
// path decomposition admits, counted before the size filter — compiles to
// a program the batched kernel accepts. FuzzQueryPipeline asserts the
// same of arbitrary text. Until one fails, the fallback serves nothing.
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
			if !prog.BatchOK() {
				t.Fatalf("%s: strand of %d statements rejected by the batched kernel", p.Name, len(s.Stmts))
			}
		}
	}
	t.Logf("%d procedures: %d block strands and %d path strands, all on the batched kernel", len(procs), blocks, paths)
}
