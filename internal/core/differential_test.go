package core

import (
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/stats"
)

// Helpers shared by the differential suites: the three-toolchain corpus
// they index and the ranking they compare.

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
