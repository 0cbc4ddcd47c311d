package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/stats"
)

// Table1Row is one experiment of the paper's Table 1: one vulnerable
// query searched in the corpus, evaluated under the three sub-methods.
type Table1Row struct {
	Vuln       corpus.Vuln
	NumBB      int
	NumStrands int
	PerMethod  map[stats.Method]MethodEval
}

// Table1Result is the full table.
type Table1Result struct {
	Rows []Table1Row
	// DBSize and UniqueStrands describe the target database.
	DBSize        int
	UniqueStrands int
}

// Table1 reproduces the paper's Table 1. For each of the eight CVEs the
// query is the vulnerable procedure compiled with the query toolchain;
// true positives are every other compilation of the same procedure
// (other toolchains and the patched source, as in Figure 5); everything
// else in the corpus is a negative.
func Table1(cfg Config) (*Table1Result, error) {
	targets, err := cfg.BuildCorpus()
	if err != nil {
		return nil, err
	}
	db, err := cfg.NewDB(targets)
	if err != nil {
		return nil, err
	}
	res := &Table1Result{DBSize: db.NumTargets(), UniqueStrands: db.NumUniqueStrands()}

	vulns := corpus.Vulns()
	queries := make([]*asm.Proc, len(vulns))
	for k, v := range vulns {
		if queries[k], err = corpus.CompileVuln(v, cfg.QueryToolchain(), false); err != nil {
			return nil, err
		}
	}
	svcp, err := cfg.svcpScores(db, targets, queries)
	if err != nil {
		return nil, err
	}
	for k, v := range vulns {
		rep, err := db.Query(queries[k])
		if err != nil {
			return nil, err
		}
		row := Table1Row{
			Vuln:       v,
			NumBB:      rep.NumBlocks,
			NumStrands: rep.NumStrands,
			PerMethod:  map[stats.Method]MethodEval{},
		}
		isPos := func(t *core.Target) bool { return t.Source.SourceSym == v.FuncName }
		scores := make([]float64, len(rep.Results))
		for i, ts := range rep.Results {
			scores[i] = svcp[k][ts.Target]
		}
		row.PerMethod[stats.SVCP] = evaluate(rep, scores, isPos)
		row.PerMethod[stats.SLOG] = Evaluate(rep, stats.SLOG, isPos)
		row.PerMethod[stats.Esh] = Evaluate(rep, stats.Esh, isPos)
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// String renders the table in the paper's layout.
func (r *Table1Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table 1 — vulnerability search (%d targets, %d unique strands)\n",
		r.DBSize, r.UniqueStrands)
	fmt.Fprintf(&b, "%-2s %-16s %-10s %4s %8s | %-30s | %-30s | %-30s\n",
		"#", "Alias", "CVE", "#BB", "#Strands", "S-VCP", "S-LOG", "Esh")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-2d %-16s %-10s %4d %8d | %-30s | %-30s | %-30s\n",
			row.Vuln.ID, row.Vuln.Alias, row.Vuln.CVE, row.NumBB, row.NumStrands,
			fmtEval(row.PerMethod[stats.SVCP]),
			fmtEval(row.PerMethod[stats.SLOG]),
			fmtEval(row.PerMethod[stats.Esh]))
	}
	return b.String()
}
