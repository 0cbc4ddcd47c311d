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
// intended. The tail pins the flag surface: -method svcp and the retired
// -prefilter are usage errors, the retired -kernel/-gamma-batch,
// -retrieval and -lsh-bands/-lsh-rows are undefined, an unset engine flag
// keeps the loaded snapshot's setting, and a threshold the engine cannot
// score with is refused.
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

	// S-VCP is an experiments-side baseline, not a ranking esh serves:
	// asking for it is a usage error, exit status 2.
	svcp := exec.Command(eshBin, "-load", snap, "-query", queryPath, "-method", "svcp")
	if out, err := svcp.CombinedOutput(); svcp.ProcessState == nil || svcp.ProcessState.ExitCode() != 2 ||
		!strings.Contains(string(out), `unknown method "svcp" (esh, slog)`) || !strings.Contains(string(out), "Usage") {
		t.Errorf("esh -method svcp: err %v, output %q; want a usage error", err, out)
	}

	// Every database tests forward injectability; the flag that chose
	// how is gone, and naming it is a usage error.
	prefilter := exec.Command(eshBin, "-load", snap, "-query", queryPath, "-prefilter", "off")
	if out, err := prefilter.CombinedOutput(); prefilter.ProcessState == nil || prefilter.ProcessState.ExitCode() != 2 ||
		!strings.Contains(string(out), "flag provided but not defined: -prefilter") {
		t.Errorf("esh -prefilter off: err %v, output %q; want a usage error", err, out)
	}

	// The retired axes, the heuristic tier among them, are gone from the
	// command line, not silently accepted: a usage error, exit status 2.
	for _, bin := range []string{eshBin, corpusBin} {
		for _, flag := range []string{"-kernel", "-gamma-batch", "-retrieval", "-lsh-bands", "-lsh-rows", "-lsh-min-containment"} {
			cmd := exec.Command(bin, flag, "0.45")
			out, err := cmd.CombinedOutput()
			if cmd.ProcessState == nil || cmd.ProcessState.ExitCode() != 2 || !strings.Contains(string(out), "flag provided but not defined: "+flag) {
				t.Errorf("%s %s: err %v, output %q; want an undefined-flag failure", filepath.Base(bin), flag, err, out)
			}
		}
	}
}
