package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/minic"
	"repro/internal/rocauc"
	"repro/internal/stats"
)

// CrossOptRow is one query configuration of the cross-optimization-level
// experiment.
type CrossOptRow struct {
	Query     string // "O2 query vs O0 targets" etc.
	FP        int
	ROC, CROC float64
}

// CrossOptResult extends the paper's three problem aspects (§5.3) with a
// fourth the paper's corpus only brushes against (its packages default to
// -O2 or -O3): searching across optimization levels. -O0 code spills
// every local and selects naive instructions, which exercises the
// lifter's frame-slot inputs harder than any cross-vendor pair.
type CrossOptResult struct {
	Rows []CrossOptRow
}

// CrossOpt queries the Heartbleed procedure across optimization levels:
// the -O2 query against a database whose true positives are -O0 builds,
// and vice versa. Decoys are compiled at the matching level.
func CrossOpt(cfg Config) (*CrossOptResult, error) {
	v := corpus.Vulns()[0]
	res := &CrossOptResult{}

	build := func(tc compile.Toolchain, opt compile.Options) (*asm.Proc, error) {
		prog, err := minic.Parse(v.Src)
		if err != nil {
			return nil, err
		}
		p, err := compile.Compile(prog, v.FuncName, tc, opt)
		if err != nil {
			return nil, err
		}
		p.Source = asm.Provenance{
			Package: v.Package, SourceSym: v.FuncName,
			Toolchain: tc.Name(), OptLevel: fmt.Sprintf("-O%d", opt.OptLevel),
		}
		p.Name = p.Source.Key()
		return p, nil
	}

	run := func(queryOpt, targetOpt compile.Options, label string) error {
		db := core.NewDB(core.Options{})
		for _, tc := range cfg.Toolchains() {
			p, err := build(tc, targetOpt)
			if err != nil {
				return err
			}
			if err := db.AddTarget(p); err != nil {
				return err
			}
		}
		for _, d := range corpus.Decoys()[:8] {
			prog, err := minic.Parse(d.Src)
			if err != nil {
				return err
			}
			for _, tc := range cfg.Toolchains() {
				procs, err := compile.CompileAll(prog, tc, targetOpt)
				if err != nil {
					return err
				}
				for _, p := range procs {
					p.Source = asm.Provenance{Package: d.Name, SourceSym: p.Name, Toolchain: tc.Name()}
					p.Name = p.Source.Key() + "@" + tc.Name()
					if err := db.AddTarget(p); err != nil {
						return err
					}
				}
			}
		}
		q, err := build(cfg.QueryToolchain(), queryOpt)
		if err != nil {
			return err
		}
		rep, err := db.Query(q)
		if err != nil {
			return err
		}
		var samples []rocauc.Sample
		for _, ts := range rep.Results {
			samples = append(samples, rocauc.Sample{
				Score:    ts.Score(stats.Esh),
				Positive: ts.Target.Source.SourceSym == v.FuncName,
			})
		}
		res.Rows = append(res.Rows, CrossOptRow{
			Query: label,
			FP:    rocauc.FalsePositives(samples),
			ROC:   rocauc.ROC(samples),
			CROC:  rocauc.CROC(samples, rocauc.DefaultAlpha),
		})
		return nil
	}

	o0 := compile.Options{OptLevel: 0}
	o1 := compile.Options{OptLevel: 1}
	o2 := compile.O2()
	if err := run(o2, o2, "O2 query vs O2 targets (baseline)"); err != nil {
		return nil, err
	}
	if err := run(o2, o1, "O2 query vs O1 targets"); err != nil {
		return nil, err
	}
	if err := run(o1, o2, "O1 query vs O2 targets"); err != nil {
		return nil, err
	}
	if err := run(o2, o0, "O2 query vs O0 targets"); err != nil {
		return nil, err
	}
	if err := run(o0, o2, "O0 query vs O2 targets"); err != nil {
		return nil, err
	}
	return res, nil
}

// String renders the table.
func (r *CrossOptResult) String() string {
	var b strings.Builder
	b.WriteString("Cross-optimization-level search (Esh, Heartbleed query)\n")
	fmt.Fprintf(&b, "%-36s %5s %8s %8s\n", "configuration", "FP", "ROC", "CROC")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-36s %5d %8.3f %8.3f\n", row.Query, row.FP, row.ROC, row.CROC)
	}
	return b.String()
}
