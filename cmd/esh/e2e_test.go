package main_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compile"
	"repro/internal/corpus"
)

// End-to-end golden test of the CLI pipeline: eshcorpus -save builds a
// snapshot, esh -load queries it, and the ranked output must match the
// committed golden byte for byte. The corpus, toolchains, and engine
// are all deterministic, so any diff is a behavior change — bump the
// golden deliberately (UPDATE_GOLDEN=1 go test ./cmd/esh) when one is
// intended. The same query is then repeated with -prefilter=off, which
// must print the identical ranking: the CLI-level form of the
// prefilter's soundness guarantee. The tail pins the flag surface:
// -method svcp is a usage error, the retired -kernel/-gamma-batch are
// undefined, an unset engine flag keeps
// the loaded snapshot's setting, and -retrieval probe selects the probe
// at the heuristic tier only.
func TestCLIGoldenQuery(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries and indexes a corpus")
	}
	dir := t.TempDir()
	eshBin := filepath.Join(dir, "esh")
	corpusBin := filepath.Join(dir, "eshcorpus")
	build := func(bin, pkg string) {
		t.Helper()
		out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", pkg, err, out)
		}
	}
	build(eshBin, "repro/cmd/esh")
	build(corpusBin, "repro/cmd/eshcorpus")

	snap := filepath.Join(dir, "corpus.eshidx")
	if out, err := exec.Command(corpusBin, "-save", snap, "-scale", "small", "-synth", "0").CombinedOutput(); err != nil {
		t.Fatalf("eshcorpus -save: %v\n%s", err, out)
	}

	// The query is Heartbleed compiled by an in-corpus toolchain, written
	// out the same way eshcorpus -out would.
	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	q, err := corpus.CompileVuln(corpus.Vulns()[0], qtc, false)
	if err != nil {
		t.Fatal(err)
	}
	queryPath := filepath.Join(dir, "query.s")
	if err := os.WriteFile(queryPath, []byte(q.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	run := func(args ...string) string {
		t.Helper()
		cmd := exec.Command(eshBin, args...)
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("esh %v: %v", args, err)
		}
		return string(out)
	}
	got := run("-load", snap, "-query", queryPath, "-top", "10")

	goldenPath := filepath.Join("testdata", "query_golden.txt")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("CLI output diverges from golden %s:\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
	}

	off := run("-load", snap, "-query", queryPath, "-top", "10", "-prefilter", "off")
	if off != got {
		t.Errorf("-prefilter=off output differs from the default lsh run:\n--- off ---\n%s--- lsh ---\n%s", off, got)
	}

	// S-VCP is an experiments-side baseline, not a ranking esh serves:
	// asking for it is a usage error, exit status 2.
	svcp := exec.Command(eshBin, "-load", snap, "-query", queryPath, "-method", "svcp")
	if out, err := svcp.CombinedOutput(); svcp.ProcessState == nil || svcp.ProcessState.ExitCode() != 2 ||
		!strings.Contains(string(out), `unknown method "svcp" (esh, slog)`) || !strings.Contains(string(out), "Usage") {
		t.Errorf("esh -method svcp: err %v, output %q; want a usage error", err, out)
	}

	// The retired speed-only axes are gone from the command line, not
	// silently accepted.
	for _, bin := range []string{eshBin, corpusBin} {
		for _, flag := range []string{"-kernel", "-gamma-batch"} {
			out, err := exec.Command(bin, flag, "1").CombinedOutput()
			if err == nil || !strings.Contains(string(out), "flag provided but not defined: "+flag) {
				t.Errorf("%s %s: err %v, output %q; want an undefined-flag failure", filepath.Base(bin), flag, err, out)
			}
		}
	}

	// Retrieval is the heuristic tier's setting, and an unset flag keeps
	// the snapshot's: a snapshot saved with -retrieval probe scans at its
	// own sound settings and prints the golden (the vcp stage of -timings
	// says which loop ran), probes once -lsh-min-containment puts it on
	// the heuristic tier — without -retrieval being repeated — and scans
	// there too when -retrieval scan overrides it.
	probeSnap := filepath.Join(dir, "probe.eshidx")
	if out, err := exec.Command(corpusBin, "-save", probeSnap, "-scale", "small", "-synth", "0", "-retrieval", "probe").CombinedOutput(); err != nil {
		t.Fatalf("eshcorpus -save -retrieval probe: %v\n%s", err, out)
	}
	for _, tc := range []struct {
		extra  []string
		want   string
		golden bool
	}{
		{nil, "retrieval_probe=0", true},
		{[]string{"-lsh-min-containment", "0.45"}, "retrieval_probe=1", false},
		{[]string{"-lsh-min-containment", "0.45", "-retrieval", "scan"}, "retrieval_probe=0", false},
	} {
		args := append([]string{"-load", probeSnap, "-query", queryPath, "-top", "10", "-timings"}, tc.extra...)
		cmd := exec.Command(eshBin, args...)
		var timings strings.Builder
		cmd.Stderr = &timings
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("esh %v: %v\n%s", args, err, timings.String())
		}
		if tc.golden && string(out) != got {
			t.Errorf("esh %v output differs from the golden run:\n%s", args, out)
		}
		if !strings.Contains(timings.String(), tc.want) {
			t.Errorf("esh %v: timings lack %s:\n%s", args, tc.want, timings.String())
		}
	}
}
