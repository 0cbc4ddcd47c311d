package core

import (
	"os"
	"testing"

	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/sketch"
	"repro/internal/vcp"
)

// Throwaway sweep harness: RUN_GEOM_SWEEP=1 go test -run TestGeomSweep
func TestGeomSweep(t *testing.T) {
	if os.Getenv("RUN_GEOM_SWEEP") == "" {
		t.Skip("set RUN_GEOM_SWEEP=1")
	}
	base := NewDB(Options{})
	fillDB(t, base, buildDiffCorpus(t))
	uniq := base.corpus.Load().uniq

	qtc, _ := compile.ByName("clang-3.5")
	var queries []*vcp.Prepared
	for _, v := range testcorpus.Vulns()[:3] {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		kept, _, err := decompose(q, base.opts)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[string]bool{}
		for _, s := range kept {
			k := s.CanonicalKey()
			if seen[k] {
				continue
			}
			seen[k] = true
			queries = append(queries, vcp.Prepare(s, base.opts.VCP))
		}
	}
	ratio := vcp.Default().SizeRatio

	// Ground truth: all eligible (non-identical, size-compatible) pairs
	// with their true fwd VCP values.
	type pair struct {
		q  *vcp.Prepared
		j  int
		fv float64
		rv float64
	}
	var eligible []pair
	for _, qp := range queries {
		for j, u := range uniq {
			if u.Key() == qp.Key() || !vcp.SizeCompatible(qp.S, u.S, ratio) {
				continue
			}
			fv := vcp.Compute(qp, u, base.opts.VCP)
			rv := vcp.Compute(u, qp, base.opts.VCP)
			eligible = append(eligible, pair{qp, j, fv, rv})
		}
	}
	t.Logf("eligible pairs: %d", len(eligible))

	// Sound dead-direction test: VCP(a,b) == 0 whenever a's typed
	// inputs cannot inject into b's. Measure how many eligible pairs
	// are dead in one or both directions — and confirm soundness
	// against the ground-truth values.
	count := func(vars []ivl.Var) (ni, nm int) {
		for _, v := range vars {
			if v.Type == ivl.Mem {
				nm++
			} else {
				ni++
			}
		}
		return
	}
	fits := func(a, b *vcp.Prepared) bool {
		ai, am := count(a.S.Inputs)
		bi, bm := count(b.S.Inputs)
		return ai <= bi && am <= bm
	}
	fwdDead, revDead, bothDead, unsound := 0, 0, 0, 0
	for _, p := range eligible {
		u := uniq[p.j]
		fd, rd := !fits(p.q, u), !fits(u, p.q)
		if fd {
			fwdDead++
			if p.fv != 0 {
				unsound++
			}
		}
		if rd {
			revDead++
			if rd && p.rv != 0 {
				unsound++
			}
		}
		if fd && rd {
			bothDead++
		}
	}
	t.Logf("dead directions: fwd %d/%d (%.0f%%), rev %d/%d (%.0f%%), both %d (%.0f%%), call reduction %.0f%%, unsound %d",
		fwdDead, len(eligible), 100*float64(fwdDead)/float64(len(eligible)),
		revDead, len(eligible), 100*float64(revDead)/float64(len(eligible)),
		bothDead, 100*float64(bothDead)/float64(len(eligible)),
		100*float64(fwdDead+revDead)/float64(2*len(eligible)), unsound)

	// Characterize high-VCP pairs: strand sizes and feature overlap.
	cfg0 := sketch.Config{}.Normalized()
	nHigh, small := 0, 0
	for _, p := range eligible {
		if p.fv < 0.5 && p.rv < 0.5 {
			continue
		}
		nHigh++
		fq := sketch.Features(p.q.S)
		fu := sketch.Features(uniq[p.j].S)
		inter := 0
		set := map[uint64]bool{}
		for _, f := range fq {
			set[f] = true
		}
		for _, f := range fu {
			if set[f] {
				inter++
			}
		}
		minf := len(fq)
		if len(fu) < minf {
			minf = len(fu)
		}
		if minf <= 12 {
			small++
		}
		if nHigh <= 25 {
			t.Logf("high pair: fv=%.2f rv=%.2f qvars=%d uvars=%d qfeat=%d ufeat=%d inter=%d jacc=%.2f cont=%.2f",
				p.fv, p.rv, p.q.S.NumVars(), uniq[p.j].S.NumVars(),
				len(fq), len(fu), inter,
				float64(inter)/float64(len(fq)+len(fu)-inter),
				float64(inter)/float64(minf))
		}
	}
	t.Logf("high-VCP eligible pairs: %d (%d with min-feature-count <= 12); cfg0=%+v", nHigh, small, cfg0)

	// Hybrid rule: candidate iff banded-bucket match OR estimated
	// containment (from signature agreement + feature counts) >= C.
	estCont := func(a, b sketch.Signature, na, nb int) float64 {
		eq := 0
		for i := range a {
			if a[i] == b[i] {
				eq++
			}
		}
		j := float64(eq) / float64(len(a))
		if j >= 1 {
			return 1
		}
		inter := j / (1 + j) * float64(na+nb)
		min := na
		if nb < min {
			min = nb
		}
		if min == 0 {
			return 0
		}
		return inter / float64(min)
	}
	{
		cfg := sketch.Config{Bands: 24, Rows: 3}.Normalized()
		qsigs := map[*vcp.Prepared]sketch.Signature{}
		usigs := make([]sketch.Signature, len(uniq))
		ufeat := make([]int, len(uniq))
		for j, u := range uniq {
			usigs[j] = sketch.Compute(u.S, cfg)
			ufeat[j] = len(sketch.Features(u.S))
		}
		qfeat := map[*vcp.Prepared]int{}
		for _, qp := range queries {
			qsigs[qp] = sketch.Compute(qp.S, cfg)
			qfeat[qp] = len(sketch.Features(qp.S))
		}
		// Production candidate rule (sound core + heuristic tier) at
		// various containment thresholds.
		for _, C := range []float64{0.30, 0.35, 0.40, 0.45, 0.50} {
			hcfg := sketch.Config{Bands: 24, Rows: 3, MinContainment: C}.Normalized()
			idx := sketch.NewIndex(hcfg)
			for _, u := range uniq {
				idx.Add(sketch.Summarize(u.S, hcfg))
			}
			marks := map[*vcp.Prepared][]bool{}
			for _, qp := range queries {
				m := make([]bool, len(uniq))
				idx.Candidates(sketch.Summarize(qp.S, hcfg), m)
				marks[qp] = m
			}
			skipped, flagged, flaggedFwd := 0, 0, 0
			for _, p := range eligible {
				if marks[p.q][p.j] {
					continue
				}
				skipped++
				if p.fv >= 0.5 || p.rv >= 0.5 {
					flagged++
				}
				if p.fv >= 0.5 {
					flaggedFwd++
				}
			}
			t.Logf("candidate rule 24x3 + heuristic estCont>=%.2f: skipped %5d/%5d (%.0f%%), flagged %d (fwd %d)",
				C, skipped, len(eligible), 100*float64(skipped)/float64(len(eligible)), flagged, flaggedFwd)
		}
		// Noise-free ceiling: gate on EXACT feature containment.
		exactCont := func(qp *vcp.Prepared, j int) float64 {
			fq := sketch.Features(qp.S)
			fu := sketch.Features(uniq[j].S)
			set := map[uint64]bool{}
			for _, f := range fq {
				set[f] = true
			}
			inter := 0
			for _, f := range fu {
				if set[f] {
					inter++
				}
			}
			min := len(fq)
			if len(fu) < min {
				min = len(fu)
			}
			if min == 0 {
				return 0
			}
			return float64(inter) / float64(min)
		}
		// Distribution of true containment among high-VCP pairs.
		buckets := map[int]int{}
		for _, p := range eligible {
			if p.fv < 0.5 && p.rv < 0.5 {
				continue
			}
			c := exactCont(p.q, p.j)
			buckets[int(c*10)]++
		}
		t.Logf("true-containment deciles of high-VCP pairs: %v", buckets)
		for _, C := range []float64{0.30, 0.40, 0.50, 0.60} {
			skipped, flagged := 0, 0
			for _, p := range eligible {
				if exactCont(p.q, p.j) >= C {
					continue
				}
				skipped++
				if p.fv >= 0.5 || p.rv >= 0.5 {
					flagged++
				}
			}
			t.Logf("EXACT cont>=%.2f: skipped %5d/%5d (%.0f%%), flagged %d",
				C, skipped, len(eligible), 100*float64(skipped)/float64(len(eligible)), flagged)
		}
		// Pure containment rule (no banding).
		for _, C := range []float64{0.35, 0.45, 0.55} {
			skipped, flagged := 0, 0
			for _, p := range eligible {
				if estCont(qsigs[p.q], usigs[p.j], qfeat[p.q], ufeat[p.j]) >= C {
					continue
				}
				skipped++
				if p.fv >= 0.5 || p.rv >= 0.5 {
					flagged++
				}
			}
			t.Logf("pure estCont>=%.2f: skipped %5d/%5d (%.0f%%), flagged %d",
				C, skipped, len(eligible), 100*float64(skipped)/float64(len(eligible)), flagged)
		}
	}

	// Heuristic-tier geometry sweep at the suggested containment level.
	for _, cfg := range []sketch.Config{
		{Bands: 24, Rows: 3, MinContainment: sketch.SuggestedMinContainment},
		{Bands: 24, Rows: 2, MinContainment: sketch.SuggestedMinContainment},
		{Bands: 32, Rows: 2, MinContainment: sketch.SuggestedMinContainment},
		{Bands: 16, Rows: 1, MinContainment: sketch.SuggestedMinContainment},
		{Bands: 32, Rows: 1, MinContainment: sketch.SuggestedMinContainment},
	} {
		cfg = cfg.Normalized()
		idx := sketch.NewIndex(cfg)
		for _, u := range uniq {
			idx.Add(sketch.Summarize(u.S, cfg))
		}
		marks := map[*vcp.Prepared][]bool{}
		for _, qp := range queries {
			m := make([]bool, len(uniq))
			idx.Candidates(sketch.Summarize(qp.S, cfg), m)
			marks[qp] = m
		}
		skipped, flagged, flaggedFwd := 0, 0, 0
		for _, p := range eligible {
			if marks[p.q][p.j] {
				continue
			}
			skipped++
			if p.fv >= 0.5 || p.rv >= 0.5 {
				flagged++
			}
			if p.fv >= 0.5 {
				flaggedFwd++
			}
		}
		t.Logf("bands=%2d rows=%d estCont>=%.2f: skipped %5d/%5d (%.0f%%), flagged %d (fwd-only %d)",
			cfg.Bands, cfg.Rows, cfg.MinContainment, skipped, len(eligible),
			100*float64(skipped)/float64(len(eligible)), flagged, flaggedFwd)
	}
}
