// Package cluster implements the paper's stated future work (§8):
// using the statistical similarity for clustering and classification
// rather than retrieval. It computes a normalized, symmetrized pairwise
// GES matrix over a set of procedures, groups them by average-linkage
// agglomerative clustering, and classifies unlabeled procedures by
// k-nearest-neighbour vote.
//
// GES values are not directly comparable across queries (each query has
// its own H0 and strand count), so the matrix normalizes every row by
// the query's self-score before symmetrizing.
package cluster

import (
	"fmt"
	"sort"

	"repro/internal/asm"
	"repro/internal/core"
)

// Matrix is a symmetric pairwise similarity over a procedure set, with
// entries normalized into [0, 1] (1 = self-similarity).
type Matrix struct {
	Labels []string
	Sim    [][]float64
}

// PairwiseGES indexes the procedures into one database, queries each
// against it, and returns the normalized symmetric similarity matrix.
func PairwiseGES(procs []*asm.Proc, opts core.Options) (*Matrix, error) {
	if len(procs) == 0 {
		return nil, fmt.Errorf("cluster: empty procedure set")
	}
	db := core.NewDB(opts)
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			return nil, err
		}
	}
	n := len(procs)
	m := &Matrix{Labels: make([]string, n), Sim: make([][]float64, n)}
	raw := make([][]float64, n)
	for i, p := range procs {
		m.Labels[i] = p.Name
		rep, err := db.Query(p)
		if err != nil {
			return nil, err
		}
		ges := make(map[string]float64, len(rep.Results))
		for _, ts := range rep.Results {
			ges[ts.Target.Name] = ts.GES
		}
		raw[i] = make([]float64, n)
		self := ges[p.Name]
		for j, t := range procs {
			raw[i][j] = SelfNormalized(ges[t.Name], self)
		}
	}
	for i := 0; i < n; i++ {
		m.Sim[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			m.Sim[i][j] = (raw[i][j] + raw[j][i]) / 2
		}
	}
	return m, nil
}

// SelfNormalized is a query's GES for one target divided by its GES for
// itself, clamped into [0, 1]: 0 when either score is not positive.
func SelfNormalized(ges, self float64) float64 {
	if self <= 0 || ges <= 0 {
		return 0
	}
	return min(ges/self, 1)
}

// Agglomerate groups indices by average-linkage agglomerative
// clustering, merging while the best inter-cluster similarity is at
// least threshold. Clusters are returned sorted by size (largest first),
// members sorted by index.
func Agglomerate(m *Matrix, threshold float64) [][]int {
	n := len(m.Labels)
	clusters := make([][]int, n)
	for i := range clusters {
		clusters[i] = []int{i}
	}
	avgLink := func(a, b []int) float64 {
		sum := 0.0
		for _, i := range a {
			for _, j := range b {
				sum += m.Sim[i][j]
			}
		}
		return sum / float64(len(a)*len(b))
	}
	for len(clusters) > 1 {
		bi, bj, best := -1, -1, threshold
		for i := 0; i < len(clusters); i++ {
			for j := i + 1; j < len(clusters); j++ {
				if s := avgLink(clusters[i], clusters[j]); s >= best {
					bi, bj, best = i, j, s
				}
			}
		}
		if bi < 0 {
			break
		}
		merged := append(append([]int{}, clusters[bi]...), clusters[bj]...)
		clusters[bi] = merged
		clusters = append(clusters[:bj], clusters[bj+1:]...)
	}
	for _, c := range clusters {
		sort.Ints(c)
	}
	sort.Slice(clusters, func(i, j int) bool {
		if len(clusters[i]) != len(clusters[j]) {
			return len(clusters[i]) > len(clusters[j])
		}
		return clusters[i][0] < clusters[j][0]
	})
	return clusters
}

// Classify labels index i by a k-nearest-neighbour vote among the
// indices that have a non-empty label. Neighbours vote with their
// similarity as weight; ties break toward the nearer neighbour. Returns
// the winning label and the total weight behind it.
func Classify(m *Matrix, labels []string, i, k int) (string, float64) {
	type cand struct {
		j   int
		sim float64
	}
	var cands []cand
	for j := range m.Labels {
		if j == i || labels[j] == "" {
			continue
		}
		cands = append(cands, cand{j, m.Sim[i][j]})
	}
	sort.Slice(cands, func(a, b int) bool { return cands[a].sim > cands[b].sim })
	if k > len(cands) {
		k = len(cands)
	}
	votes := map[string]float64{}
	for _, c := range cands[:k] {
		votes[labels[c.j]] += c.sim
	}
	bestLabel, bestW := "", -1.0
	for _, c := range cands[:k] { // iterate in nearness order for tie-breaks
		l := labels[c.j]
		if votes[l] > bestW {
			bestLabel, bestW = l, votes[l]
		}
	}
	return bestLabel, bestW
}
