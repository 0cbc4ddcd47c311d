package core

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// The LSH prefilter is an optimisation, not a new ranking method: at
// the sound defaults it must leave GES rankings byte-identical to the
// exhaustive pair loop while doing measurably less verifier work. This
// differential harness builds the same small-scale corpus into two DBs
// (prefilter off and lsh), runs representative vulnerability queries
// through both, and then audits every pair-direction the prefilter
// skipped by recomputing its true VCP — the sound core only ever skips
// work that is provably zero, so a single nonzero value is a bug, not a
// tuning tradeoff.

// testToolchains looks the named toolchains up.
func testToolchains(t *testing.T, names ...string) []compile.Toolchain {
	t.Helper()
	var tcs []compile.Toolchain
	for _, n := range names {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	return tcs
}

func buildDiffCorpus(t *testing.T) []*asm.Proc {
	t.Helper()
	procs, err := testcorpus.Build(testcorpus.BuildConfig{
		Toolchains:     testToolchains(t, "gcc-4.9", "clang-3.5", "icc-15.0.1"),
		IncludePatched: true,
		SynthVariants:  0,
	})
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func fillDB(t *testing.T, db *DB, procs []*asm.Proc) {
	t.Helper()
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatalf("index %s: %v", p.Name, err)
		}
	}
}

func rankingNames(rep *Report, m stats.Method) string {
	var b strings.Builder
	for _, ts := range rep.Rank(m) {
		b.WriteString(ts.Target.Name)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestPrefilterDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("differential prefilter run is slow")
	}
	procs := buildDiffCorpus(t)

	dbOff := NewDB(Options{})
	dbLSH := NewDB(Options{Prefilter: PrefilterLSH})
	fillDB(t, dbOff, procs)
	fillDB(t, dbLSH, procs)

	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	vulns := testcorpus.Vulns()
	if len(vulns) > 3 {
		vulns = vulns[:3]
	}
	for _, v := range vulns {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatalf("compile query %s: %v", v.Alias, err)
		}
		repOff, err := dbOff.Query(q)
		if err != nil {
			t.Fatalf("query %s (off): %v", v.Alias, err)
		}
		repLSH, err := dbLSH.Query(q)
		if err != nil {
			t.Fatalf("query %s (lsh): %v", v.Alias, err)
		}
		off := rankingNames(repOff, stats.Esh)
		lsh := rankingNames(repLSH, stats.Esh)
		if off != lsh {
			ro, rl := repOff.Rank(stats.Esh), repLSH.Rank(stats.Esh)
			var diffs []string
			for i := range ro {
				if ro[i].Target.Name != rl[i].Target.Name {
					diffs = append(diffs, fmt.Sprintf(
						"  rank %3d: off %-52s GES=%.6f | lsh %-52s GES=%.6f",
						i+1, ro[i].Target.Name, ro[i].GES, rl[i].Target.Name, rl[i].GES))
				}
			}
			t.Errorf("query %s: GES ranking diverges under the LSH prefilter at %d positions:\n%s",
				v.Alias, len(diffs), strings.Join(diffs, "\n"))
		}

		auditDroppedPairs(t, dbLSH, q, v.Alias)
	}

	offCalls := dbOff.Stats().VerifierCalls
	lshCalls := dbLSH.Stats().VerifierCalls
	if offCalls == 0 {
		t.Fatal("off-mode run made no verifier calls; harness is vacuous")
	}
	t.Logf("verifier calls: off=%d lsh=%d (%.1f%% saved; %d pairs LSH-skipped)",
		offCalls, lshCalls, 100*(1-float64(lshCalls)/float64(offCalls)),
		dbLSH.Stats().LSHPairsSkipped)
	if float64(lshCalls) > 0.7*float64(offCalls) {
		t.Errorf("LSH prefilter saved too little verifier work: %d calls vs %d off (want <= 70%%)",
			lshCalls, offCalls)
	}
}

// auditDroppedPairs recomputes the ground truth for everything the
// prefilter removed from this query. At the sound defaults the claim is
// exact, so the audit is too: a pair skipped outright (dead in both
// directions) must have true VCP exactly 0 both ways, and a surviving pair
// whose forward direction the engine finds dead must score exactly 0 — any
// nonzero value is an unsound skip that perturbs scores, not just a recall
// leak.
func auditDroppedPairs(t *testing.T, db *DB, q *asm.Proc, alias string) {
	t.Helper()
	kept, _, err := decompose(q, db.opts)
	if err != nil {
		t.Fatalf("decompose %s: %v", alias, err)
	}
	ratio := db.opts.VCP.SizeRatio
	if ratio <= 0 {
		ratio = vcp.Default().SizeRatio
	}
	seen := map[string]bool{}
	dropped, deadDirs, unsound := 0, 0, 0
	var examples []string
	flag := func(j int, dir string, v float64) {
		unsound++
		if len(examples) < 5 {
			examples = append(examples,
				fmt.Sprintf("  %s vcp=%.3f target-strand=%d", dir, v, j))
		}
	}
	for _, s := range kept {
		key := s.CanonicalKey()
		if seen[key] {
			continue
		}
		seen[key] = true
		prep := vcp.Prepare(s, db.opts.VCP)
		if prep.Err() != nil {
			t.Fatalf("prepare query strand: %v", prep.Err())
		}
		qSum := sketch.Summarize(s, db.sketchCfg)
		c, mark := db.corpus.Load(), make([]bool, db.NumUniqueStrands())
		c.sketchIdx.Candidates(qSum, mark)
		for j, u := range c.uniq {
			if u.Key() == key || !vcp.SizeCompatible(s, u.S, ratio) {
				continue
			}
			uSum := c.sums[j]
			if !mark[j] {
				// Skipped outright: must be zero in both directions.
				dropped++
				if fv := vcp.Compute(prep, u, db.opts.VCP); fv != 0 {
					flag(j, "dropped-fwd", fv)
				}
				if rv := vcp.Compute(u, prep, db.opts.VCP); rv != 0 {
					flag(j, "dropped-rev", rv)
				}
				continue
			}
			// Candidate pair: a forward direction the engine declares dead
			// must truly score zero.
			if !qSum.Injects(uSum) {
				deadDirs++
				if fv := vcp.Compute(prep, u, db.opts.VCP); fv != 0 {
					flag(j, "dead-fwd", fv)
				}
			}
		}
	}
	t.Logf("query %s: audited %d dropped pairs and %d dead directions of surviving pairs, %d unsound",
		alias, dropped, deadDirs, unsound)
	if unsound > 0 {
		t.Errorf("query %s: prefilter skipped %d pair-directions with nonzero true VCP:\n%s",
			alias, unsound, strings.Join(examples, "\n"))
	}
}
