package vcp_test

// Differential guard for the batched evaluation kernel at the corpus
// level: over real lifted strands (not just generated programs), the
// batched kernel must produce byte-identical fingerprints to the scalar
// reference under every γ assignment the VCP search would try, and the
// production evaluator must return the values and work counts of the
// scalar reference evaluator.

import (
	"math/rand"
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/lift"
	"repro/internal/smt"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// corpusStrands decomposes a two-toolchain corpus into unique strands.
func corpusStrands(t *testing.T) []*strand.Strand {
	return uniqueBlockStrands(t, false, "gcc-4.9", "clang-3.5")
}

// uniqueBlockStrands builds a corpus and decomposes it into its unique
// block strands of at least five variables: what core indexes under the
// default options.
func uniqueBlockStrands(t *testing.T, patched bool, toolchains ...string) []*strand.Strand {
	t.Helper()
	var tcs []compile.Toolchain
	for _, n := range toolchains {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: patched})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	var out []*strand.Strand
	for _, p := range procs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range strand.FromProc(lp) {
			if key := s.CanonicalKey(); s.NumVars() >= vcp.Default().MinVars && !seen[key] {
				seen[key] = true
				out = append(out, s)
			}
		}
	}
	if len(out) == 0 {
		t.Fatal("corpus produced no strands")
	}
	return out
}

// enumerateAssignments yields up to cap injective type-preserving
// assignments of q's inputs to t's slots, the γ candidates Algorithm 2
// enumerates.
func enumerateAssignments(qIn, tIn []ivl.Var, limit int, yield func([]int)) {
	assignment := make([]int, len(qIn))
	used := make([]bool, len(tIn))
	count := 0
	var rec func(i int)
	rec = func(i int) {
		if count >= limit {
			return
		}
		if i == len(qIn) {
			count++
			yield(assignment)
			return
		}
		for slot := 0; slot < len(tIn); slot++ {
			if used[slot] || tIn[slot].Type != qIn[i].Type {
				continue
			}
			used[slot] = true
			assignment[i] = slot
			rec(i + 1)
			used[slot] = false
		}
	}
	rec(0)
}

// TestKernelDifferentialCorpus compares scalar and batched fingerprints
// for every corpus strand across the γ assignments of real strand
// pairings, and asserts ComputeWithStats parity between the kernels.
func TestKernelDifferentialCorpus(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	strands := corpusStrands(t)
	if len(strands) > 24 {
		strands = strands[:24]
	}

	// Per-strand: the strand must compile (CompileStrand refuses what the
	// kernel cannot type), and the batched fingerprints must match the
	// scalar reference under the γ assignments of every compatible pairing
	// (self-pairings included, covering the identity assignment Prepare
	// uses).
	progs := make([]*smt.Program, len(strands))
	for i, s := range strands {
		prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
		if err != nil {
			t.Fatalf("strand %d (%s): %v", i, s.ProcName, err)
		}
		progs[i] = prog
	}
	const perPairCap = 16
	samples := smt.DefaultSamples
	for i, q := range strands {
		kern := smt.AcquireKernel()
		kern.Bind(progs[i], samples, 1)
		for j, u := range strands {
			if len(q.Inputs) > len(u.Inputs) {
				continue
			}
			enumerateAssignments(q.Inputs, u.Inputs, perPairCap, func(slots []int) {
				want := progs[i].Fingerprints(slots, samples)
				got := kern.Fingerprints(slots)
				for d := range want {
					if got[d] != want[d] {
						t.Fatalf("pair (%d,%d) slots %v def %d: batch %#x scalar %#x",
							i, j, slots, d, got[d], want[d])
					}
				}
			})
		}
		smt.ReleaseKernel(kern)
	}

	// End-to-end VCP parity: identical values and γ counts from the
	// production evaluator and the scalar reference.
	cfg := vcp.Config{}
	prep := make([]*vcp.Prepared, len(strands))
	for i, s := range strands {
		prep[i] = vcp.Prepare(s, cfg)
		if err := prep[i].Err(); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
	}
	for i := range strands {
		scalar := vcp.NewReferenceEvaluator(prep[i], cfg, 0)
		for j := range strands {
			vs, ss := scalar.Compute(prep[j])
			vb, sb := vcp.ComputeWithStats(prep[i], prep[j], cfg)
			if vs != vb || ss.Correspondences != sb.Correspondences {
				t.Fatalf("pair (%d,%d): scalar (%v, %d γ) vs production (%v, %d γ)",
					i, j, vs, ss.Correspondences, vb, sb.Correspondences)
			}
			if ss.Batches != 0 || ss.MemoHits != 0 || sb.MemoMisses+sb.MemoHits < int64(sb.Correspondences) {
				t.Fatalf("pair (%d,%d): reference flushed %d batches with %d memo hits; production %d memo misses + %d memo hits for %d γ",
					i, j, ss.Batches, ss.MemoHits, sb.MemoMisses, sb.MemoHits, sb.Correspondences)
			}
		}
		scalar.Close()
	}
}

// TestKernelRebindDifferential guards the hazard kernel ownership
// introduced: state surviving a re-bind. ONE kernel walks a sequence of
// corpus programs — first the transitions most likely to leave something
// behind (a memory-heavy program after an integer-only one, a wide one
// after a narrow one, width 1 after width 8, the same program again with
// others in between), then a shuffled tour — and after every bind, on two
// consecutive flushes, every row's fingerprints must equal a new kernel's
// and the scalar interpreter's, per definition and in the reduced form.
// Stale lanes, arena nodes, interned roots or lastSlot entries from an
// earlier binding would show as a differing fingerprint. CI runs it with
// -race.
func TestKernelRebindDifferential(t *testing.T) {
	strands := corpusStrands(t)
	progs := make([]*smt.Program, len(strands))
	memDefs := func(s *strand.Strand) (n int) {
		for _, v := range s.Vars() {
			if v.Type == ivl.Mem {
				n++
			}
		}
		return n
	}
	intOnly, memHeavy, narrow, wide := -1, 0, 0, 0
	for i, s := range strands {
		prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
		if err != nil {
			t.Fatalf("strand %d: %v", i, err)
		}
		progs[i] = prog
		hasMem := memDefs(s) > 0
		for _, in := range s.Inputs {
			hasMem = hasMem || in.Type == ivl.Mem
		}
		if !hasMem && (intOnly < 0 || s.NumVars() > strands[intOnly].NumVars()) {
			intOnly = i
		}
		if memDefs(s) > memDefs(strands[memHeavy]) {
			memHeavy = i
		}
		if s.NumVars() < strands[narrow].NumVars() {
			narrow = i
		}
		if s.NumVars() > strands[wide].NumVars() {
			wide = i
		}
	}
	if intOnly < 0 || memDefs(strands[memHeavy]) == 0 {
		t.Fatal("corpus lacks an integer-only or a memory-writing strand")
	}

	type step struct{ prog, g int }
	walk := []step{
		{intOnly, 8}, {memHeavy, 8}, // memory-heavy after integer-only
		{narrow, 8}, {wide, 8}, // wide after narrow
		{narrow, 1},              // width 1 after width 8
		{memHeavy, 8}, {wide, 2}, // the same programs again, others between
	}
	rng := rand.New(rand.NewSource(20260919))
	for _, i := range rng.Perm(len(strands))[:min(len(strands), 48)] {
		walk = append(walk, step{i, []int{1, 2, 8}[rng.Intn(3)]})
	}

	samples := smt.DefaultSamples
	var walked smt.Kernel
	for si, st := range walk {
		prog, nIn := progs[st.prog], len(strands[st.prog].Inputs)
		walked.Bind(prog, samples, st.g)
		var fresh smt.Kernel
		fresh.Bind(prog, samples, st.g)
		classes := prog.Varying()
		for flush := 0; flush < 2; flush++ {
			rows := 1 + rng.Intn(st.g)
			staged := make([][]int, rows)
			for r := range staged {
				staged[r] = make([]int, nIn)
				for i := range staged[r] {
					staged[r][i] = rng.Intn(nIn + 2)
				}
				walked.BindRow(r, staged[r])
				fresh.BindRow(r, staged[r])
			}
			got, want := walked.FingerprintsRows(rows), fresh.FingerprintsRows(rows)
			nd := len(want) / rows
			for r := range staged {
				scalar := prog.Fingerprints(staged[r], samples)
				for d := range scalar {
					if got[r*nd+d] != want[r*nd+d] || got[r*nd+d] != scalar[d] {
						t.Fatalf("step %d (strand %d, G=%d) flush %d row %d def %d: re-bound %#x, new kernel %#x, scalar %#x",
							si, st.prog, st.g, flush, r, d, got[r*nd+d], want[r*nd+d], scalar[d])
					}
				}
			}
			// The reduced form re-runs the same staged rows.
			got, want = walked.VaryingRows(rows), fresh.VaryingRows(rows)
			for r := range staged {
				scalar := prog.Fingerprints(staged[r], samples)
				for i, c := range classes {
					j := r*len(classes) + i
					if got[j] != want[j] || got[j] != scalar[c.Def] {
						t.Fatalf("step %d (strand %d, G=%d) flush %d row %d class %d: re-bound %#x, new kernel %#x, scalar %#x",
							si, st.prog, st.g, flush, r, i, got[j], want[j], scalar[c.Def])
					}
				}
			}
		}
	}
}

// TestFoldedScoreCountsEveryDefinition pins the arithmetic that lets a
// memo entry hold only what varies. For every corpus strand the distinct
// γ-dependent registers' multiplicities plus the γ-invariant definitions
// add up to NumVars — the denominator of VCP — and for corpus strand
// pairs, under the γ assignments the search would try, the folded match
// count (constants found in the target, once, + Σ multiplicity over the
// classes' fingerprints found) is the integer the per-definition count
// gives, so the scores are the same bits. (That Kernel.VaryingRows
// reports exactly the classes' fingerprints is smt's
// TestVaryingRowsMatchPerDefinition and the re-bind differential above.)
func TestFoldedScoreCountsEveryDefinition(t *testing.T) {
	strands := corpusStrands(t)
	samples := smt.DefaultSamples
	progs := make([]*smt.Program, len(strands))
	sets := make([]map[uint64]bool, len(strands)) // target side: identity fingerprints
	var kern smt.Kernel
	for i, s := range strands {
		prog, err := smt.CompileStrand(s.Stmts, s.Inputs)
		if err != nil {
			t.Fatalf("strand %d: %v", i, err)
		}
		progs[i] = prog
		covered := len(prog.ConstDefs())
		for _, c := range prog.Varying() {
			covered += c.Mult
		}
		if covered != s.NumVars() {
			t.Fatalf("strand %d: Σ mult + consts = %d, NumVars = %d", i, covered, s.NumVars())
		}
		identity := make([]int, len(s.Inputs))
		for j := range identity {
			identity[j] = j
		}
		sets[i] = map[uint64]bool{}
		for _, h := range prog.Fingerprints(identity, samples) {
			sets[i][h] = true
		}
	}
	multis, consts := 0, 0
	var key []byte
	for i, q := range strands {
		prog, classes := progs[i], progs[i].Varying()
		kern.Bind(prog, samples, 1)
		// Fingerprints depend on the assignment alone, and most targets
		// offer the same first few: evaluate each once per query strand.
		evaluated := map[string][]uint64{}
		for j, u := range strands {
			if len(q.Inputs) > len(u.Inputs) {
				continue
			}
			enumerateAssignments(q.Inputs, u.Inputs, 4, func(slots []int) {
				key = key[:0]
				for _, sl := range slots {
					key = append(key, byte(sl))
				}
				full, ok := evaluated[string(key)]
				if !ok {
					full = append(full, kern.Fingerprints(slots)...)
					evaluated[string(key)] = full
				}
				perDef := 0
				for _, h := range full {
					if sets[j][h] {
						perDef++
					}
				}
				folded := 0
				for _, d := range prog.ConstDefs() {
					if sets[j][full[d]] {
						folded++
					}
				}
				for _, c := range classes {
					if sets[j][full[c.Def]] {
						folded += c.Mult
					}
				}
				if folded != perDef {
					t.Fatalf("pair (%d,%d) slots %v: folded count %d, per-definition count %d of %d",
						i, j, slots, folded, perDef, q.NumVars())
				}
			})
		}
		for _, c := range classes {
			if c.Mult > 1 {
				multis++
			}
		}
		consts += len(prog.ConstDefs())
	}
	if multis == 0 || consts == 0 {
		t.Fatalf("corpus exercised %d shared registers and %d constant definitions; the fold was not tested", multis, consts)
	}
}
