package experiments

import (
	"context"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rocauc"
	"repro/internal/stats"
	"repro/internal/vcp"
)

// AblationRow is one setting of one ablated design choice, evaluated on
// the Heartbleed experiment.
type AblationRow struct {
	Knob    string
	Setting string
	ROC     float64
	CROC    float64
	FP      int
	// Strands is the engine's unique indexed strand count and
	// QueryStrands the query's strands surviving the size filter: what
	// shows a setting reached the engine when every row ranks alike.
	Strands, QueryStrands int
	Elapsed               time.Duration
}

// AblationResult collects the §5.5 / DESIGN.md ablations: the sigmoid
// steepness k, the minimum-strand-size filter, and the size-ratio
// window.
type AblationResult struct {
	Rows []AblationRow
}

// Ablation evaluates each design knob on experiment #1's query.
func Ablation(cfg Config) (*AblationResult, error) {
	targets, err := cfg.BuildCorpus()
	if err != nil {
		return nil, err
	}
	v := corpus.Vulns()[0]
	q, err := corpus.CompileVuln(v, cfg.QueryToolchain(), false)
	if err != nil {
		return nil, err
	}

	isPos := func(t *core.Target) bool { return t.Source.SourceSym == v.FuncName }
	res := &AblationResult{}

	// Sigmoid steepness (paper §3.3.1 chose k = 10 experimentally). One
	// engine at the paper's k answers the query once; each k's row
	// re-scores that partial. A row's time is the shared build and query
	// plus its own re-scoring, so it reads like the rows below.
	start := time.Now()
	db, err := cfg.NewDB(targets)
	if err != nil {
		return nil, err
	}
	qp, err := db.PartialQueryCtx(context.Background(), q)
	if err != nil {
		return nil, err
	}
	shared := time.Since(start)
	for _, k := range []float64{1, 5, 10, 20} {
		start := time.Now()
		scores := Rescore(qp, k)
		samples := make([]rocauc.Sample, len(scores))
		for i, ts := range scores {
			samples[i] = rocauc.Sample{Score: ts.GES, Positive: isPos(ts.Target)}
		}
		ev := measure(samples)
		res.Rows = append(res.Rows, AblationRow{
			Knob: "sigmoid-k", Setting: fmt.Sprintf("k=%g", k),
			ROC: ev.ROC, CROC: ev.CROC, FP: ev.FP,
			Strands: db.NumUniqueStrands(), QueryStrands: qp.NumStrands,
			Elapsed: shared + time.Since(start),
		})
	}

	run := func(knob, setting string, opts core.Options) error {
		start := time.Now()
		db := core.NewDB(opts)
		for _, p := range targets {
			if err := db.AddTarget(p); err != nil {
				return err
			}
		}
		rep, err := db.Query(q)
		if err != nil {
			return err
		}
		ev := Evaluate(rep, stats.Esh, isPos)
		res.Rows = append(res.Rows, AblationRow{
			Knob: knob, Setting: setting,
			ROC: ev.ROC, CROC: ev.CROC, FP: ev.FP,
			Strands: db.NumUniqueStrands(), QueryStrands: rep.NumStrands,
			Elapsed: time.Since(start),
		})
		return nil
	}

	// Minimum strand size (paper §5.5 uses 5).
	for _, mv := range []int{2, 5, 8} {
		opts := core.Options{VCP: vcp.Config{MinVars: mv}}
		if err := run("min-strand-vars", fmt.Sprintf("min=%d", mv), opts); err != nil {
			return nil, err
		}
	}
	// Size-ratio window (paper §5.5 uses 0.5; 0.01 ≈ disabled).
	for _, ratio := range []float64{0.01, 0.5, 0.8} {
		opts := core.Options{VCP: vcp.Config{SizeRatio: ratio}}
		if err := run("size-ratio", fmt.Sprintf("ratio=%.2f", ratio), opts); err != nil {
			return nil, err
		}
	}
	// Path strands (the §6.6 extension for small procedures).
	for _, pl := range []int{0, 2} {
		opts := core.Options{PathLen: pl, PathMaxBlocks: 20}
		if err := run("path-strands", fmt.Sprintf("k=%d", pl), opts); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// Rescore scores every target of qp at sigmoid steepness k, in qp.Targets
// (index) order: Eq. 1's GES and S-LOG, each strand's H0 evidence taken
// from its histogram at k. k enters nothing else — no VCP, γ search or
// histogram — so a partial the engine computed at the paper's k holds all
// a row at another k reads. Ranked stably, the scores tie-break as
// Finalize's do: by index order.
func Rescore(qp *core.QueryPartial, k float64) []core.TargetScore {
	evidence := make([]stats.StrandEvidence, len(qp.Weights))
	for i, w := range qp.Weights {
		evidence[i] = qp.H0[i].Evidence(w, k)
	}
	scores := make([]core.TargetScore, len(qp.Targets))
	for ti, ps := range qp.Targets {
		scores[ti] = core.TargetScore{
			Target: ps.Target,
			SLOG:   stats.GES(stats.SLOG, ps.MaxVCP, evidence),
			GES:    stats.GES(stats.Esh, ps.MaxVCP, evidence),
		}
	}
	return scores
}

// String renders the ablation table.
func (r *AblationResult) String() string {
	var b strings.Builder
	b.WriteString("Ablations — Esh on experiment #1 under varied design choices\n")
	fmt.Fprintf(&b, "%-16s %-12s %8s %8s %5s %10s\n", "knob", "setting", "ROC", "CROC", "FP", "time")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "%-16s %-12s %8.3f %8.3f %5d %10s\n",
			row.Knob, row.Setting, row.ROC, row.CROC, row.FP, row.Elapsed.Round(time.Millisecond))
	}
	return b.String()
}
