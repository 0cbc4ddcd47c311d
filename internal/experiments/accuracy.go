package experiments

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"
	"strings"

	"repro/internal/asm"
	"repro/internal/cluster"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rocauc"
	"repro/internal/stats"
)

// accuracyDecoys is how many generated decoy packages the second corpus
// adds to the first: at Small scale the two are C1 (eshcorpus -scale
// small -synth 0) and C4 (-synth 100).
const accuracyDecoys = 100

// AccuracyQuery is one held-out query's row: its Esh ranking over the
// corpus judged against the label rule (see Accuracy).
type AccuracyQuery struct {
	Name string
	Eval MethodEval
	// Top1 and Top10 report whether a positive is ranked first, or among
	// the first ten.
	Top1, Top10 bool
}

// AccuracyCorpus is the judge's verdict on one corpus.
type AccuracyCorpus struct {
	Label                  string
	Targets, UniqueStrands int
	Queries                []AccuracyQuery
	// Pooled ranks every (query, target) pair of the corpus at once, by
	// three scores: GES, the H0-free key Σᵢ wᵢ log max(σ(MaxVCPᵢ), ε), and
	// GES normalised by the query's self-score the way internal/cluster
	// normalises it.
	ByGES, ByKey, BySelf MethodEval
}

// AccuracyResult is the judge over both corpora.
type AccuracyResult struct {
	Corpora []AccuracyCorpus
}

// Accuracy judges the engine's answers over a population of held-out
// queries, on the scale's corpus and on that corpus grown by
// accuracyDecoys generated decoy packages. The population: every
// unpatched corpus source compiled by each toolchain the corpus does not
// hold, grouped by source (Package:SourceSym); sources whose body repeats
// an earlier one are dropped, and source i is queried in variant i mod
// the variants (at Small scale, the 109 queries eshbench's search_cold
// sends). The label rule: a target is positive for a query iff it shares
// the query's Package:SourceSym — patched variants of a vulnerable
// procedure included, as in Table 1.
func Accuracy(cfg Config) (*AccuracyResult, error) {
	queries, err := cfg.heldOutQueries()
	if err != nil {
		return nil, err
	}
	res := &AccuracyResult{}
	for _, c := range []struct {
		label string
		synth int
	}{
		{"corpus", cfg.SynthVariants()},
		{fmt.Sprintf("corpus + %d decoy packages", accuracyDecoys), cfg.SynthVariants() + accuracyDecoys},
	} {
		targets, err := corpus.Build(corpus.BuildConfig{
			Toolchains:     cfg.Toolchains(),
			IncludePatched: true,
			SynthVariants:  c.synth,
		})
		if err != nil {
			return nil, err
		}
		db, err := cfg.NewDB(targets)
		if err != nil {
			return nil, err
		}
		ac, err := judge(db, queries)
		if err != nil {
			return nil, err
		}
		ac.Label = c.label
		res.Corpora = append(res.Corpora, *ac)
	}
	return res, nil
}

// heldOutQueries builds the query population Accuracy documents.
func (c Config) heldOutQueries() ([]*asm.Proc, error) {
	var held []compile.Toolchain
	inCorpus := c.Toolchains()
	for _, tc := range compile.Toolchains() {
		if !slices.ContainsFunc(inCorpus, func(in compile.Toolchain) bool { return in.Name() == tc.Name() }) {
			held = append(held, tc)
		}
	}
	if len(held) == 0 {
		return nil, fmt.Errorf("experiments: scale %s compiles the corpus with every toolchain: no held-out query", c.Scale)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: held})
	if err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	group := map[string]int{}
	var sources [][]*asm.Proc
	for _, p := range procs {
		key := p.Source.Package + ":" + p.Source.SourceSym
		g, ok := group[key]
		if !ok {
			text := p.String()
			body := text[strings.IndexByte(text, '\n'):]
			if seen[body] {
				continue
			}
			seen[body] = true
			g = len(sources)
			group[key] = g
			sources = append(sources, nil)
		}
		sources[g] = append(sources[g], p)
	}
	queries := make([]*asm.Proc, len(sources))
	for i, vs := range sources {
		queries[i] = vs[i%len(vs)]
	}
	return queries, nil
}

// judge runs every query against db and evaluates it.
func judge(db *core.DB, queries []*asm.Proc) (*AccuracyCorpus, error) {
	ac := &AccuracyCorpus{Targets: db.NumTargets(), UniqueStrands: db.NumUniqueStrands()}
	var ges, key, self []rocauc.Sample
	for _, q := range queries {
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			return nil, err
		}
		evidence := make([]stats.StrandEvidence, len(qp.Weights))
		selfGES := 0.0 // the query scored as a target holding every one of its strands
		for i, w := range qp.Weights {
			evidence[i] = qp.H0[i].Evidence(w, qp.SigmoidK)
			selfGES += stats.Score(stats.Esh, 1, evidence[i])
		}
		keys := make(map[*core.Target]float64, len(qp.Targets))
		for _, ps := range qp.Targets {
			keys[ps.Target] = h0FreeKey(ps.MaxVCP, evidence)
		}
		rep := qp.Finalize()
		isPos := func(t *core.Target) bool {
			return t.Source.Package == q.Source.Package && t.Source.SourceSym == q.Source.SourceSym
		}
		row := AccuracyQuery{Name: q.Name, Eval: Evaluate(rep, stats.Esh, isPos)}
		for r, ts := range rep.Results {
			pos := isPos(ts.Target)
			row.Top1 = row.Top1 || pos && r == 0
			row.Top10 = row.Top10 || pos && r < 10
			ges = append(ges, rocauc.Sample{Score: ts.GES, Positive: pos})
			key = append(key, rocauc.Sample{Score: keys[ts.Target], Positive: pos})
			self = append(self, rocauc.Sample{Score: cluster.SelfNormalized(ts.GES, selfGES), Positive: pos})
		}
		ac.Queries = append(ac.Queries, row)
	}
	ac.ByGES, ac.ByKey, ac.BySelf = pooled(ges), pooled(key), pooled(self)
	return ac, nil
}

// h0FreeKey is a target's GES without its H0 sum: Σᵢ wᵢ log max(σ(vᵢ), ε),
// which H0 shifts by one constant per query (DESIGN §6).
func h0FreeKey(maxVCP []float64, evidence []stats.StrandEvidence) float64 {
	key := 0.0
	for i, v := range maxVCP {
		k := evidence[i].K
		if k == 0 {
			k = stats.DefaultSigmoidK
		}
		key += evidence[i].Weight * math.Log(math.Max(stats.SigmoidWithK(v, k), stats.Epsilon))
	}
	return key
}

func pooled(samples []rocauc.Sample) MethodEval {
	return MethodEval{
		FP:   rocauc.FalsePositives(samples),
		ROC:  rocauc.ROC(samples),
		CROC: rocauc.CROC(samples, rocauc.DefaultAlpha),
	}
}

// worstAccuracy is how many of the lowest-ROC queries String names.
const worstAccuracy = 5

// String renders every row with exact values (%.17g), so a rendering
// that does not move proves the answers did not move.
func (r *AccuracyResult) String() string {
	var b strings.Builder
	g := func(x float64) string { return fmt.Sprintf("%.17g", x) }
	eval := func(e MethodEval) string { return fmt.Sprintf("FP=%d ROC=%s CROC=%s", e.FP, g(e.ROC), g(e.CROC)) }
	for _, c := range r.Corpora {
		n := float64(len(c.Queries))
		fmt.Fprintf(&b, "Accuracy — %d held-out queries on %s (%d targets, %d unique strands)\n",
			len(c.Queries), c.Label, c.Targets, c.UniqueStrands)
		var roc, croc float64
		var fp, top1, top10 int
		for _, q := range c.Queries {
			fmt.Fprintf(&b, "  %-60s %s top1=%t top10=%t\n", q.Name, eval(q.Eval), q.Top1, q.Top10)
			roc += q.Eval.ROC
			croc += q.Eval.CROC
			fp += q.Eval.FP
			if q.Top1 {
				top1++
			}
			if q.Top10 {
				top10++
			}
		}
		fmt.Fprintf(&b, "  mean: ROC=%s CROC=%s FP=%s top1=%s top10=%s\n",
			g(roc/n), g(croc/n), g(float64(fp)/n), g(float64(top1)/n), g(float64(top10)/n))
		worst := slices.Clone(c.Queries)
		slices.SortStableFunc(worst, func(a, b AccuracyQuery) int {
			return cmp.Or(cmp.Compare(a.Eval.ROC, b.Eval.ROC), cmp.Compare(a.Eval.CROC, b.Eval.CROC))
		})
		fmt.Fprintf(&b, "  worst %d by ROC:\n", worstAccuracy)
		for _, q := range worst[:min(worstAccuracy, len(worst))] {
			fmt.Fprintf(&b, "    %-58s %s\n", q.Name, eval(q.Eval))
		}
		fmt.Fprintf(&b, "  pooled by GES:           %s\n", eval(c.ByGES))
		fmt.Fprintf(&b, "  pooled by H0-free key:   %s\n", eval(c.ByKey))
		fmt.Fprintf(&b, "  pooled by GES/self-GES:  %s\n", eval(c.BySelf))
	}
	return b.String()
}
