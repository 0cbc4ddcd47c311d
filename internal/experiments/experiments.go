// Package experiments defines one reproducible experiment per table and
// figure of the paper's evaluation (§5–6): Table 1 (the eight CVE
// searches under S-VCP / S-LOG / Esh), Table 2 (TRACY vs Esh across
// problem aspects), Table 3 (BinDiff), Figure 5 (the Heartbleed GES bar
// list), Figure 6 (the 40×40 all-vs-all heat map), the §6.2 common-strand
// census, and the §5.5 heuristic ablations.
//
// Every experiment takes a Config whose Scale selects corpus size: tests
// run Small, the esheval command and the benchmarks run Full (near the
// paper's 1500-procedure database).
package experiments

import (
	"fmt"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rocauc"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// Scale selects the corpus size.
type Scale int

// Scales.
const (
	// Small: three toolchains (one per vendor), core decoys, no
	// synthetic variants. Minutes of CPU; used by tests.
	Small Scale = iota
	// Medium: five toolchains, all decoys, some synthetic variants.
	Medium
	// Full: all seven toolchains, all decoys, synthetic variants sized
	// to approach the paper's 1500-procedure database.
	Full
)

func (s Scale) String() string {
	switch s {
	case Small:
		return "small"
	case Medium:
		return "medium"
	default:
		return "full"
	}
}

// Config parameterizes an experiment run.
type Config struct {
	Scale   Scale
	Workers int
	// VCP overrides the verifier configuration (zero = paper defaults).
	VCP vcp.Config
}

// Toolchains returns the scale's toolchain set. The query toolchain
// (clang-3.5, per the paper's experiment #1) is always present.
func (c Config) Toolchains() []compile.Toolchain {
	all := compile.Toolchains()
	switch c.Scale {
	case Small:
		return pick(all, "gcc-4.9", "clang-3.5", "icc-15.0.1")
	case Medium:
		return pick(all, "gcc-4.6", "gcc-4.9", "clang-3.4", "clang-3.5", "icc-15.0.1")
	default:
		return all
	}
}

func pick(all []compile.Toolchain, names ...string) []compile.Toolchain {
	var out []compile.Toolchain
	for _, n := range names {
		for _, tc := range all {
			if tc.Name() == n {
				out = append(out, tc)
			}
		}
	}
	return out
}

// SynthVariants returns the number of generated decoy packages.
func (c Config) SynthVariants() int {
	switch c.Scale {
	case Small:
		return 0
	case Medium:
		return 8
	default:
		return 40
	}
}

// QueryToolchain is the toolchain the paper compiles its queries with in
// experiment #1 (CLang 3.5).
func (c Config) QueryToolchain() compile.Toolchain {
	tc, _ := compile.ByName("clang-3.5")
	return tc
}

// BuildCorpus compiles the full test-bed for this configuration.
func (c Config) BuildCorpus() ([]*asm.Proc, error) {
	return corpus.Build(corpus.BuildConfig{
		Toolchains:     c.Toolchains(),
		IncludePatched: true,
		SynthVariants:  c.SynthVariants(),
	})
}

// NewDB builds an Esh engine database over the given targets.
func (c Config) NewDB(targets []*asm.Proc) (*core.DB, error) {
	db := core.NewDB(core.Options{VCP: c.VCP, Workers: c.Workers})
	for _, p := range targets {
		if err := db.AddTarget(p); err != nil {
			return nil, err
		}
	}
	return db, nil
}

// MethodEval is the per-method triple the paper's Table 1 reports.
type MethodEval struct {
	FP   int
	ROC  float64
	CROC float64
}

// Evaluate converts a report into Table-1 metrics for one of the engine's
// methods (Esh or S-LOG), with isPositive supplying ground truth.
func Evaluate(rep *core.Report, m stats.Method, isPositive func(*core.Target) bool) MethodEval {
	scores := make([]float64, len(rep.Results))
	for i, ts := range rep.Results {
		scores[i] = ts.Score(m)
	}
	return evaluate(rep, scores, isPositive)
}

// evaluate is Evaluate over scores[i], the score of rep.Results[i] under
// the method evaluated. The measures rank stably over the results' GES
// order, so score ties break as Report.Rank breaks them.
func evaluate(rep *core.Report, scores []float64, isPositive func(*core.Target) bool) MethodEval {
	samples := make([]rocauc.Sample, len(rep.Results))
	for i, ts := range rep.Results {
		samples[i] = rocauc.Sample{Score: scores[i], Positive: isPositive(ts.Target)}
	}
	return MethodEval{
		FP:   rocauc.FalsePositives(samples),
		ROC:  rocauc.ROC(samples),
		CROC: rocauc.CROC(samples, rocauc.DefaultAlpha),
	}
}

// fmtEval renders a MethodEval the way Table 1 prints it.
func fmtEval(e MethodEval) string {
	return fmt.Sprintf("FP=%-4d ROC=%.3f CROC=%.3f", e.FP, e.ROC, e.CROC)
}
