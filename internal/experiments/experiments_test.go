package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/stats"
)

// The experiment tests run at Small scale and assert the *shapes* the
// paper reports, not absolute numbers: who wins, roughly by how much,
// and where methods break down. They are skipped under -short.

func small() Config { return Config{Scale: Small} }

func TestTable1Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Table1(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d, want 8", len(res.Rows))
	}
	if res.DBSize < 100 {
		t.Errorf("DB suspiciously small: %d", res.DBSize)
	}

	eshBeatsSlog, eshGoodROC := 0, 0
	var sumEsh, sumSlog, sumSvcp float64
	for _, row := range res.Rows {
		esh := row.PerMethod[stats.Esh]
		slog := row.PerMethod[stats.SLOG]
		svcp := row.PerMethod[stats.SVCP]
		if row.NumBB == 0 || row.NumStrands == 0 {
			t.Errorf("%s: empty decomposition", row.Vuln.Alias)
		}
		if esh.ROC >= slog.ROC {
			eshBeatsSlog++
		}
		if esh.ROC >= 0.9 {
			eshGoodROC++
		}
		sumEsh += esh.CROC
		sumSlog += slog.CROC
		sumSvcp += svcp.CROC
	}
	// Paper shape: the full method dominates the S-LOG layer and is
	// accurate across the board.
	if eshBeatsSlog < 6 {
		t.Errorf("Esh ROC >= S-LOG ROC in only %d/8 experiments\n%s", eshBeatsSlog, res)
	}
	if eshGoodROC < 7 {
		t.Errorf("Esh ROC >= 0.9 in only %d/8 experiments\n%s", eshGoodROC, res)
	}
	if sumEsh <= sumSlog {
		t.Errorf("mean Esh CROC (%v) not above S-LOG (%v)", sumEsh/8, sumSlog/8)
	}
	// The Venom row reproduces §6.2's observation: distinct numeric
	// constants let even S-VCP do very well.
	venom := res.Rows[2]
	if venom.Vuln.Alias != "Venom" {
		t.Fatalf("row 3 is %s", venom.Vuln.Alias)
	}
	if venom.PerMethod[stats.SVCP].ROC < 0.95 {
		t.Errorf("Venom S-VCP ROC = %v; the paper's distinct-constants effect is missing",
			venom.PerMethod[stats.SVCP].ROC)
	}
	// Rendering sanity.
	text := res.String()
	if !strings.Contains(text, "Heartbleed") || !strings.Contains(text, "CROC") {
		t.Error("table rendering incomplete")
	}
}

// TestTable1Golden pins Table 1 at Small scale to the character: every
// method's FP, ROC and CROC on all eight queries. The corpus, toolchains and
// engine are deterministic, so any diff is a change in what the paper
// record says — regenerate it deliberately with
// UPDATE_GOLDEN=1 go test -run TestTable1Golden ./internal/experiments.
func TestTable1Golden(t *testing.T) {
	res, err := Table1(small())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table1_small.golden", res.String())
}

// TestAccuracyGolden pins ROADMAP Z's accuracy judge at Small scale: the
// 109 held-out queries against C1 and against C1 plus 100 generated decoy
// packages (C4), every per-query ROC, CROC, FP and top-1/top-10 hit, their
// means, the five worst queries and the three pooled rankings, each as an
// exact %.17g value — an answer-preserving change moves no character.
// Regenerate it deliberately with
// UPDATE_GOLDEN=1 go test -run TestAccuracyGolden ./internal/experiments.
func TestAccuracyGolden(t *testing.T) {
	res, err := Accuracy(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Corpora) != 2 || len(res.Corpora[0].Queries) != 109 {
		t.Fatalf("want 109 queries on two corpora, got %d corpora", len(res.Corpora))
	}
	checkGolden(t, "accuracy_small.golden", res.String())
}

// checkGolden compares an experiment's rendering with testdata/name, or
// rewrites the file first when UPDATE_GOLDEN is set. Table 2, Table 3,
// Figure 5 and Figure 6 are pinned inside their shape tests, so each
// experiment runs once: regenerate them with
// UPDATE_GOLDEN=1 go test -run 'Golden|Shape' ./internal/experiments.
func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	golden := filepath.Join("testdata", name)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if got != string(want) {
		t.Errorf("rendering differs from %s:\n--- got ---\n%s--- want ---\n%s", golden, got, want)
	}
}

func TestTable2Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Table2(small())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table2_small.golden", res.String())
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d, want 7", len(res.Rows))
	}
	byAspect := map[Aspect]Table2Row{}
	for _, row := range res.Rows {
		if row.NumPositive == 0 {
			t.Errorf("row %s has no positives", row.Aspects)
		}
		byAspect[row.Aspects] = row
	}
	// TRACY handles versions and patches but degrades across vendors
	// and collapses when all aspects combine (the paper's Table 2).
	if byAspect[Versions].TracyROC < 0.85 {
		t.Errorf("TRACY on versions = %v, expected strong", byAspect[Versions].TracyROC)
	}
	if byAspect[Patches].TracyROC < 0.85 {
		t.Errorf("TRACY on patches = %v, expected strong", byAspect[Patches].TracyROC)
	}
	all := Versions | CrossVendor | Patches
	if byAspect[all].TracyROC >= byAspect[Versions].TracyROC {
		t.Errorf("TRACY did not degrade from versions (%v) to all aspects (%v)",
			byAspect[Versions].TracyROC, byAspect[all].TracyROC)
	}
	// Esh stays strong on every row and wins on the full combination.
	for _, row := range res.Rows {
		if row.EshROC < 0.85 {
			t.Errorf("Esh ROC on %s = %v", row.Aspects, row.EshROC)
		}
	}
	if byAspect[all].EshROC <= byAspect[all].TracyROC {
		t.Errorf("Esh (%v) does not beat TRACY (%v) on the full combination",
			byAspect[all].EshROC, byAspect[all].TracyROC)
	}
}

func TestTable3Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Table3(small())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "table3_small.golden", res.String())
	if len(res.Rows) != 8 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	matched := 0
	for _, row := range res.Rows {
		if row.Matched {
			matched++
			if row.Similarity <= 0 || row.Similarity > 1 {
				t.Errorf("%s: similarity %v", row.Alias, row.Similarity)
			}
		}
	}
	// The paper's BinDiff matched 2 of 8. Our simulated toolchains
	// preserve CFG shape more than real compilers do (documented in
	// EXPERIMENTS.md), so the matcher survives on a few more — but it
	// must still fail on a meaningful subset, and the two procedures the
	// paper reports as matched (ws-snmp, ffmpeg: small, stable
	// structure) must match here as well.
	if matched > 5 {
		t.Errorf("BinDiff matched %d/8 across vendors+patch — too many for a structural matcher\n%s",
			matched, res)
	}
	if matched < 2 {
		t.Errorf("BinDiff matched only %d/8 — the stable-structure cases should survive", matched)
	}
	for _, row := range res.Rows {
		if row.Alias == "ws-snmp" || row.Alias == "ffmpeg" {
			if !row.Matched {
				t.Errorf("%s should match (the paper's two structural survivors)", row.Alias)
			}
		}
	}
}

func TestFig5Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Fig5(small())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig5_small.golden", res.String())
	if len(res.Bars) < 50 {
		t.Fatalf("bars = %d", len(res.Bars))
	}
	// Bars sorted descending and normalized.
	for i := 1; i < len(res.Bars); i++ {
		if res.Bars[i].GES > res.Bars[i-1].GES+1e-9 {
			t.Fatal("bars not sorted")
		}
	}
	if res.Bars[0].GES != 1.0 {
		t.Errorf("top bar not normalized: %v", res.Bars[0].GES)
	}
	if !res.Bars[0].TruePositive {
		t.Errorf("top result is not a Heartbleed variant: %s", res.Bars[0].Label)
	}
	if res.ROC < 0.95 {
		t.Errorf("Fig5 ROC = %v", res.ROC)
	}
	if !strings.Contains(res.String(), "gap") {
		t.Error("rendering missing gap line")
	}
}

func TestFig6Shape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Fig6(small())
	if err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "fig6_small.golden", res.String())
	n := len(res.Labels)
	if n < 15 {
		t.Fatalf("matrix too small: %d", n)
	}
	for i := range res.Matrix {
		if len(res.Matrix[i]) != n {
			t.Fatal("matrix not square")
		}
	}
	// Ground truth on the diagonal: self-similarity maximal per row.
	for i := range res.Matrix {
		for j := range res.Matrix[i] {
			if res.Matrix[i][j] > res.Matrix[i][i]+1e-9 {
				t.Errorf("row %s: %s outranks self", res.Labels[i], res.Labels[j])
			}
		}
	}
	// The paper reports avg ROC 0.986 and CROC 0.959.
	if res.AvgROC < 0.9 {
		t.Errorf("avg ROC = %v, want >= 0.9", res.AvgROC)
	}
	if res.AvgCROC < 0.8 {
		t.Errorf("avg CROC = %v, want >= 0.8", res.AvgCROC)
	}
	// CSV rendering has n+1 lines plus header fields.
	csv := res.CSV()
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != n+1 {
		t.Error("CSV line count wrong")
	}
}

func TestCensusShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := Census(small(), 5)
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalStrands == 0 || res.UniqueStrands == 0 {
		t.Fatal("empty census")
	}
	if len(res.Top) != 5 {
		t.Fatalf("top = %d", len(res.Top))
	}
	// §6.2: the most common strand is a compiler idiom appearing across
	// many procedures.
	if res.Top[0].Targets < 10 {
		t.Errorf("most common strand appears in only %d procedures", res.Top[0].Targets)
	}
	for i := 1; i < len(res.Top); i++ {
		if res.Top[i].Count > res.Top[i-1].Count {
			t.Error("census not sorted by count")
		}
	}
}

func TestConfigScales(t *testing.T) {
	if len((Config{Scale: Small}).Toolchains()) != 3 {
		t.Error("small scale should use 3 toolchains")
	}
	if len((Config{Scale: Full}).Toolchains()) != 7 {
		t.Error("full scale should use 7 toolchains")
	}
	if (Config{Scale: Full}).SynthVariants() <= (Config{Scale: Small}).SynthVariants() {
		t.Error("synth variants should grow with scale")
	}
	if (Config{}).QueryToolchain().Name() != "clang-3.5" {
		t.Error("query toolchain should be clang-3.5 (experiment #1)")
	}
	for _, s := range []Scale{Small, Medium, Full} {
		if s.String() == "" {
			t.Error("scale name empty")
		}
	}
}

func TestCrossOptShape(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment tests are slow")
	}
	res, err := CrossOpt(small())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	base, o2o0, o0o2 := res.Rows[0], res.Rows[3], res.Rows[4]
	if base.ROC < 0.99 {
		t.Errorf("same-level baseline ROC = %v", base.ROC)
	}
	// The asymmetric VCP makes the O0 query (small, spill-severed
	// strands, each contained in the O2 code) far easier than the O2
	// query (large strands that O0's layout severs).
	if o0o2.ROC < 0.95 {
		t.Errorf("O0 query vs O2 targets ROC = %v, expected strong", o0o2.ROC)
	}
	if o2o0.ROC >= o0o2.ROC {
		t.Errorf("expected the documented asymmetry: O2→O0 (%v) below O0→O2 (%v)",
			o2o0.ROC, o0o2.ROC)
	}
}
