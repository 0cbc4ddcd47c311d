package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/cfg"
	"repro/internal/lift"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// CensusEntry is one common strand found in the corpus.
type CensusEntry struct {
	Count   int
	Targets int // number of distinct procedures containing it
	Sample  string
}

// CensusResult reproduces the paper's §6.2 analysis of experiment #5:
// the most common strands in the corpus are compiler idioms (the paper
// found push-REG prologue sequences), which is exactly why Pr(sq|H0)
// amplification is needed.
type CensusResult struct {
	TotalStrands  int
	UniqueStrands int
	Top           []CensusEntry
}

// Census counts canonical strand frequencies over the corpus.
func Census(c Config, topN int) (*CensusResult, error) {
	targets, err := c.BuildCorpus()
	if err != nil {
		return nil, err
	}
	counts := map[string]int{}
	inProcs := map[string]int{}
	samples := map[string]string{}
	total := 0
	for _, p := range targets {
		g, err := cfg.Build(p)
		if err != nil {
			return nil, err
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			return nil, err
		}
		seen := map[string]bool{}
		for _, s := range strand.FromProc(lp) {
			if s.NumVars() < vcp.Default().MinVars {
				continue
			}
			key := s.CanonicalKey()
			counts[key]++
			total++
			if !seen[key] {
				seen[key] = true
				inProcs[key]++
			}
			if _, ok := samples[key]; !ok {
				samples[key] = s.String()
			}
		}
	}
	res := &CensusResult{TotalStrands: total, UniqueStrands: len(counts)}
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if counts[keys[i]] != counts[keys[j]] {
			return counts[keys[i]] > counts[keys[j]]
		}
		return keys[i] < keys[j]
	})
	if topN > len(keys) {
		topN = len(keys)
	}
	for _, k := range keys[:topN] {
		res.Top = append(res.Top, CensusEntry{
			Count:   counts[k],
			Targets: inProcs[k],
			Sample:  samples[k],
		})
	}
	return res, nil
}

// String renders the census.
func (r *CensusResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "§6.2 census — %d strands, %d unique\n", r.TotalStrands, r.UniqueStrands)
	for i, e := range r.Top {
		fmt.Fprintf(&b, "#%d ×%d (in %d procedures):\n%s\n", i+1, e.Count, e.Targets, indent(e.Sample))
	}
	return b.String()
}

func indent(s string) string {
	return "    " + strings.ReplaceAll(strings.TrimRight(s, "\n"), "\n", "\n    ")
}
