// Package bindiff reimplements the structural whole-library matcher the
// paper evaluates in Table 3 (zynamics BinDiff). Following the features
// the BinDiff manual describes — and deliberately ignoring instruction
// semantics, as its documentation states — procedures are matched across
// two libraries by: exact (blocks, edges, calls) structural triples,
// mnemonic small-prime products, degree sequences, and finally a nearest
// structural neighbour with a similarity/confidence estimate.
//
// Being purely syntactic-structural, the matcher succeeds only when
// block/branch structure is preserved — the paper's observation that it
// works for the two cases where the procedure's shape survived
// compilation and patching.
package bindiff

import (
	"math"
	"sort"

	"repro/internal/asm"
	"repro/internal/cfg"
)

// Features summarizes one procedure structurally.
type Features struct {
	Name    string
	Source  asm.Provenance
	Blocks  int
	Edges   int
	Calls   int
	Insts   int
	Degrees []int  // sorted out-degree sequence
	MnHash  uint64 // small-prime product of mnemonics (commutative)
}

// Extract computes the feature vector of one procedure.
func Extract(p *asm.Proc) (*Features, error) {
	g, err := cfg.Build(p)
	if err != nil {
		return nil, err
	}
	f := &Features{
		Name:   p.Name,
		Source: p.Source,
		Blocks: len(g.Blocks),
		Edges:  g.NumEdges(),
		Calls:  g.NumCalls(),
		Insts:  p.NumInsts(),
		MnHash: 1,
	}
	for _, b := range g.Blocks {
		f.Degrees = append(f.Degrees, len(b.Succs))
		for _, in := range b.Insts {
			f.MnHash *= prime(uint64(in.Op)*16 + uint64(in.CC))
		}
	}
	sort.Ints(f.Degrees)
	return f, nil
}

// prime maps an opcode id to a small prime (BinDiff's "small primes
// product" mnemonic hash).
func prime(id uint64) uint64 {
	primes := [...]uint64{2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
		47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113,
		127, 131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
		197, 199, 211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271,
		277, 281, 283, 293, 307, 311}
	return primes[id%uint64(len(primes))]
}

// Match is one procedure pairing produced by Diff.
type Match struct {
	Query, Target *Features
	Similarity    float64
	Confidence    float64
}

// minNeighbourSim is the acceptance threshold of the nearest-neighbour
// pass and minNeighbourMargin the required lead over the runner-up;
// below either, BinDiff reports no match rather than guessing (its
// match propagation only accepts unambiguous pairings).
const (
	minNeighbourSim    = 0.72
	minNeighbourMargin = 0.04
)

// Diff matches the procedures of a query library against a target
// library, the way BinDiff matches two executables: matched pairs are
// removed from both sides after each pass.
//
// Pass 1: identical (blocks, edges, calls) triple AND mnemonic hash.
// Pass 2: identical triple alone, if unique on both sides.
// Pass 3: nearest neighbour by structural distance, accepted only above
// a minimum similarity.
func Diff(query, target []*Features) []Match {
	var out []Match
	usedQ := make([]bool, len(query))
	usedT := make([]bool, len(target))

	type key struct {
		b, e, c int
		mh      uint64
	}
	// Pass 1: exact structure + mnemonics, unique on both sides.
	pass := func(keyOf func(*Features) key, sim, conf float64) {
		qk := map[key][]int{}
		tk := map[key][]int{}
		for i, f := range query {
			if !usedQ[i] {
				qk[keyOf(f)] = append(qk[keyOf(f)], i)
			}
		}
		for i, f := range target {
			if !usedT[i] {
				tk[keyOf(f)] = append(tk[keyOf(f)], i)
			}
		}
		for k, qi := range qk {
			ti := tk[k]
			if len(qi) == 1 && len(ti) == 1 {
				usedQ[qi[0]] = true
				usedT[ti[0]] = true
				out = append(out, Match{
					Query: query[qi[0]], Target: target[ti[0]],
					Similarity: sim, Confidence: conf,
				})
			}
		}
	}
	pass(func(f *Features) key {
		return key{f.Blocks, f.Edges, f.Calls, f.MnHash}
	}, 1.0, 0.99)
	pass(func(f *Features) key {
		return key{f.Blocks, f.Edges, f.Calls, 0}
	}, 0.9, 0.85)

	// Pass 3: nearest structural neighbour.
	for i, q := range query {
		if usedQ[i] {
			continue
		}
		bestJ, bestSim, secondSim := -1, 0.0, 0.0
		for j, t := range target {
			if usedT[j] {
				continue
			}
			s := structuralSimilarity(q, t)
			if s > bestSim {
				secondSim = bestSim
				bestSim, bestJ = s, j
			} else if s > secondSim {
				secondSim = s
			}
		}
		if bestJ >= 0 && bestSim >= minNeighbourSim && bestSim-secondSim >= minNeighbourMargin {
			usedQ[i] = true
			usedT[bestJ] = true
			out = append(out, Match{
				Query: q, Target: target[bestJ],
				Similarity: bestSim,
				Confidence: bestSim * 0.9,
			})
		}
	}
	return out
}

// structuralSimilarity compares two feature vectors in [0, 1].
func structuralSimilarity(a, b *Features) float64 {
	rel := func(x, y int) float64 {
		if x == 0 && y == 0 {
			return 1
		}
		d := math.Abs(float64(x - y))
		m := math.Max(float64(x), float64(y))
		return 1 - d/m
	}
	s := 0.35*rel(a.Blocks, b.Blocks) +
		0.25*rel(a.Edges, b.Edges) +
		0.2*rel(a.Calls, b.Calls) +
		0.1*rel(a.Insts, b.Insts)
	// Degree-sequence overlap.
	same := 0
	n := len(a.Degrees)
	if len(b.Degrees) < n {
		n = len(b.Degrees)
	}
	for i := 0; i < n; i++ {
		if a.Degrees[i] == b.Degrees[i] {
			same++
		}
	}
	maxLen := len(a.Degrees)
	if len(b.Degrees) > maxLen {
		maxLen = len(b.Degrees)
	}
	if maxLen > 0 {
		s += 0.1 * float64(same) / float64(maxLen)
	}
	return s
}
