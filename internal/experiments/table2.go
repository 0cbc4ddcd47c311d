package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/minic"
	"repro/internal/rocauc"
	"repro/internal/stats"
	"repro/internal/tracy"
)

// Aspect is one of the paper's three problem dimensions (§5.3).
type Aspect uint8

// Aspects.
const (
	Versions Aspect = 1 << iota // same vendor, different compiler versions
	CrossVendor
	Patches
)

func (a Aspect) String() string {
	var parts []string
	if a&Versions != 0 {
		parts = append(parts, "versions")
	}
	if a&CrossVendor != 0 {
		parts = append(parts, "cross")
	}
	if a&Patches != 0 {
		parts = append(parts, "patches")
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Table2Row compares TRACY (Ratio-70) and Esh on one aspect combination.
type Table2Row struct {
	Aspects     Aspect
	TracyROC    float64
	EshROC      float64
	NumPositive int
}

// Table2Result is the paper's Table 2.
type Table2Result struct {
	Rows []Table2Row
}

// table2Aspects lists the rows in the paper's order: each single aspect,
// then the pairwise combinations, then all three.
func table2Aspects() []Aspect {
	return []Aspect{
		Versions,
		CrossVendor,
		Patches,
		Versions | CrossVendor,
		CrossVendor | Patches,
		Versions | Patches,
		Versions | CrossVendor | Patches,
	}
}

// Table2 reproduces the TRACY-vs-Esh comparison. The query is the
// Heartbleed procedure compiled with gcc-4.9 (gcc has three simulated
// versions, enabling the version aspect); each row's true positives are
// the variants selected by the aspect set, ranked within the shared
// decoy database.
func Table2(cfg Config) (*Table2Result, error) {
	v := corpus.Vulns()[0]
	queryTC, _ := compile.ByName("gcc-4.9")

	// Variant inventory: heartbleed under every toolchain and patch
	// state (regardless of scale — eight procedures are cheap).
	type variant struct {
		proc   *asm.Proc
		aspect Aspect // the aspect set that makes it a positive
	}
	var variants []variant
	for _, tc := range compile.Toolchains() {
		for _, patched := range []bool{false, true} {
			if tc.Name() == queryTC.Name() && !patched {
				continue // that is the query itself
			}
			p, err := corpus.CompileVuln(v, tc, patched)
			if err != nil {
				return nil, err
			}
			var a Aspect
			if tc.Vendor == queryTC.Vendor && tc.Name() != queryTC.Name() {
				a |= Versions
			}
			if tc.Vendor != queryTC.Vendor {
				a |= CrossVendor
			}
			if patched {
				a |= Patches
			}
			variants = append(variants, variant{proc: p, aspect: a})
		}
	}

	// Decoy negatives (scale-dependent).
	var negatives []*asm.Proc
	for _, d := range corpus.Decoys() {
		prog, err := minic.Parse(d.Src)
		if err != nil {
			return nil, err
		}
		for _, tc := range cfg.Toolchains() {
			procs, err := compile.CompileAll(prog, tc, compile.O2())
			if err != nil {
				return nil, err
			}
			for _, p := range procs {
				p.Source = asm.Provenance{Package: d.Name, SourceSym: p.Name, Toolchain: tc.Name()}
				p.Name = p.Source.Key()
				negatives = append(negatives, p)
			}
		}
	}

	query, err := corpus.CompileVuln(v, queryTC, false)
	if err != nil {
		return nil, err
	}

	// One shared database (variant positives + decoys); rows filter it.
	targets := make([]*asm.Proc, 0, len(variants)+len(negatives))
	for _, vr := range variants {
		targets = append(targets, vr.proc)
	}
	db, err := cfg.NewDB(append(targets, negatives...))
	if err != nil {
		return nil, err
	}
	rep, err := db.Query(query)
	if err != nil {
		return nil, err
	}
	eshScore := map[string]float64{}
	for _, ts := range rep.Results {
		eshScore[ts.Target.Name] = ts.Score(stats.Esh)
	}

	// TRACY scores once for every target.
	tq, err := tracy.Prepare(query, tracy.Default())
	if err != nil {
		return nil, err
	}
	tracyScore := map[string]float64{}
	for _, vr := range variants {
		tp, err := tracy.Prepare(vr.proc, tracy.Default())
		if err != nil {
			return nil, err
		}
		tracyScore[vr.proc.Name] = tracy.Score(tq, tp, tracy.Default())
	}
	for _, p := range negatives {
		tp, err := tracy.Prepare(p, tracy.Default())
		if err != nil {
			return nil, err
		}
		tracyScore[p.Name] = tracy.Score(tq, tp, tracy.Default())
	}

	// aspectMatch: a variant is a positive for a row iff its aspect set
	// is non-empty and contained in the row's aspects.
	aspectMatch := func(row, variant Aspect) bool {
		return variant != 0 && variant&^row == 0
	}

	res := &Table2Result{}
	for _, row := range table2Aspects() {
		var tracySamples, eshSamples []rocauc.Sample
		nPos := 0
		for _, vr := range variants {
			if !aspectMatch(row, vr.aspect) {
				continue // variants outside the row's aspects are excluded
			}
			nPos++
			tracySamples = append(tracySamples, rocauc.Sample{Score: tracyScore[vr.proc.Name], Positive: true})
			eshSamples = append(eshSamples, rocauc.Sample{Score: eshScore[vr.proc.Name], Positive: true})
		}
		for _, p := range negatives {
			tracySamples = append(tracySamples, rocauc.Sample{Score: tracyScore[p.Name]})
			eshSamples = append(eshSamples, rocauc.Sample{Score: eshScore[p.Name]})
		}
		res.Rows = append(res.Rows, Table2Row{
			Aspects:     row,
			TracyROC:    rocauc.ROC(tracySamples),
			EshROC:      rocauc.ROC(eshSamples),
			NumPositive: nPos,
		})
	}
	return res, nil
}

// String renders the table.
func (r *Table2Result) String() string {
	var b strings.Builder
	b.WriteString("Table 2 — TRACY (Ratio-70) vs Esh across problem aspects (ROC AUC)\n")
	fmt.Fprintf(&b, "%-24s %4s %12s %12s\n", "aspects", "#TP", "TRACY", "Esh")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-24s %4d %12.4f %12.4f\n",
			row.Aspects, row.NumPositive, row.TracyROC, row.EshROC)
	}
	return b.String()
}
