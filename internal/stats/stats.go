// Package stats implements the paper's statistical framework (§3.3–3.4):
// lifting the VCP similarity of strands into probabilities with a sigmoid,
// estimating the random hypothesis H0 as the corpus mean, and composing
// Local and Global Evidence Scores. It also defines the sub-method
// decomposition of §6.2 (S-VCP, S-LOG, Esh) used throughout the
// evaluation.
package stats

import "math"

// Sigmoid parameters from §3.3.1: midpoint 0.5 (VCP ranges over [0,1])
// and steepness k = 10, found experimentally by the authors.
const (
	SigmoidMidpoint = 0.5
	DefaultSigmoidK = 10.0
)

// Epsilon floors probabilities before logarithms.
const Epsilon = 1e-9

// Sigmoid maps a VCP in [0,1] to a probability with the paper's logistic
// curve: Pr(sq|st) = 1 / (1 + exp(-k (VCP - 0.5))).
func Sigmoid(vcp float64) float64 { return SigmoidWithK(vcp, DefaultSigmoidK) }

// SigmoidWithK is Sigmoid with an explicit steepness (for the k-ablation).
func SigmoidWithK(vcp, k float64) float64 {
	return 1.0 / (1.0 + math.Exp(-k*(vcp-SigmoidMidpoint)))
}

// Method selects one of the paper's sub-method layers (§6.2).
type Method uint8

// Sub-methods, in increasing order of machinery.
const (
	// SVCP sums, per query strand, the best VCP over the target's
	// strands — no statistical significance weighting at all. Table 1
	// uses the paper's form, summed over the target's strands in the
	// reverse VCP direction, which package experiments computes.
	SVCP Method = iota
	// SLOG applies the likelihood-ratio framework with Pr(sq|st) taken
	// to be the raw VCP (no sigmoid).
	SLOG
	// Esh is the full method: sigmoid probability plus likelihood ratio.
	Esh
)

func (m Method) String() string {
	switch m {
	case SVCP:
		return "S-VCP"
	case SLOG:
		return "S-LOG"
	default:
		return "Esh"
	}
}

// Pr converts a VCP into the method's strand-match probability. For SVCP
// the "probability" is the VCP itself (the method never takes logs).
func Pr(m Method, vcp float64) float64 {
	switch m {
	case Esh:
		return Sigmoid(vcp)
	default:
		return vcp
	}
}

// LES is the Local Evidence Score (§3.4): the log likelihood-ratio
// between the best match in the target and the random hypothesis:
// log Pr(sq|t) − log Pr(sq|H0). Inputs are floored at Epsilon.
func LES(prBest, prH0 float64) float64 {
	return math.Log(math.Max(prBest, Epsilon)) - math.Log(math.Max(prH0, Epsilon))
}

// StrandEvidence aggregates one query strand's statistics against the
// whole corpus: the corpus-mean probabilities per method (the H0
// estimate) and, externally, per-target best VCPs.
type StrandEvidence struct {
	// Weight is the strand's multiplicity in the query (identical
	// strands are deduplicated but still contribute once each).
	Weight float64
	// H0Esh and H0Raw are the corpus means of Sigmoid(VCP) and VCP.
	H0Esh, H0Raw float64
	// K is the sigmoid steepness used for Esh scores (0 selects
	// DefaultSigmoidK); it exists for the k-ablation.
	K float64
}

func (ev StrandEvidence) k() float64 {
	if ev.K == 0 {
		return DefaultSigmoidK
	}
	return ev.K
}

// Score computes the method's contribution of one query strand matched
// against one target with best VCP maxVCP.
func Score(m Method, maxVCP float64, ev StrandEvidence) float64 {
	switch m {
	case SVCP:
		return ev.Weight * maxVCP
	case SLOG:
		return ev.Weight * LES(maxVCP, ev.H0Raw)
	default:
		return ev.Weight * LES(SigmoidWithK(maxVCP, ev.k()), ev.H0Esh)
	}
}

// GES sums strand contributions into the Global Evidence Score (Eq. 1).
func GES(m Method, maxVCPs []float64, evidence []StrandEvidence) float64 {
	total := 0.0
	for i, v := range maxVCPs {
		total += Score(m, v, evidence[i])
	}
	return total
}

// Scorer evaluates one query strand's S-LOG and Esh contributions for
// many targets: Scores(v) returns exactly Score(SLOG, v, ev) and
// Score(Esh, v, ev), bit for bit, but takes the two H0 logarithms once
// (they do not depend on the target) and the best-match logarithms once
// per distinct v — a strand's best VCPs across a corpus are a handful of
// fractions, mostly zero. The saving changes no bit because nothing is
// reassociated: each product Weight × (log − log) is formed from the same
// operands by the same operations as in LES, only computed less often.
type Scorer struct {
	weight, k          float64
	logH0Raw, logH0Esh float64
	seen               [maxScored]scored
	nSeen              int
}

type scored struct{ v, slog, esh float64 }

// maxScored bounds the distinct values a Scorer remembers, so a strand
// with unusually many keeps the lookup a short scan (and a Scorer needs
// no allocation of its own).
const maxScored = 32

// Scorer returns the evaluator for this strand's evidence.
func (ev StrandEvidence) Scorer() Scorer {
	return Scorer{
		weight:   ev.Weight,
		k:        ev.k(),
		logH0Raw: math.Log(math.Max(ev.H0Raw, Epsilon)),
		logH0Esh: math.Log(math.Max(ev.H0Esh, Epsilon)),
	}
}

// Scores returns the strand's S-LOG and Esh contributions against a
// target whose best VCP for it is maxVCP.
func (sc *Scorer) Scores(maxVCP float64) (slog, esh float64) {
	for _, s := range sc.seen[:sc.nSeen] {
		if s.v == maxVCP {
			return s.slog, s.esh
		}
	}
	slog = sc.weight * (math.Log(math.Max(maxVCP, Epsilon)) - sc.logH0Raw)
	esh = sc.weight * (math.Log(math.Max(SigmoidWithK(maxVCP, sc.k), Epsilon)) - sc.logH0Esh)
	if sc.nSeen < maxScored {
		sc.seen[sc.nSeen] = scored{maxVCP, slog, esh}
		sc.nSeen++
	}
	return slog, esh
}

// H0Accumulator incrementally estimates Pr(sq|H0) for one query strand as
// the corpus-weighted mean of Pr(sq|st) over every target strand
// (§3.3.2), tracked for both the sigmoid and the raw probability model.
// K overrides the sigmoid steepness (0 selects DefaultSigmoidK).
type H0Accumulator struct {
	K              float64
	sumEsh, sumRaw float64
	count          float64
	sigmoid0       float64 // SigmoidWithK(0, k), once Add has met a zero
}

// Add records a VCP observation with the given corpus multiplicity. Most
// of a row is zero (skipped, pruned or unmatched pairs), so the sigmoid of
// zero is taken once; the sums see the same terms in the same order.
func (h *H0Accumulator) Add(vcp float64, multiplicity int) {
	k := h.K
	if k == 0 {
		k = DefaultSigmoidK
	}
	pr := h.sigmoid0
	if vcp != 0 {
		pr = SigmoidWithK(vcp, k)
	} else if pr == 0 { // a sigmoid is never zero: not taken yet
		pr = SigmoidWithK(0, k)
		h.sigmoid0 = pr
	}
	w := float64(multiplicity)
	h.sumEsh += pr * w
	h.sumRaw += vcp * w
	h.count += w
}

// Evidence finalizes the estimate for a strand with the given weight.
func (h *H0Accumulator) Evidence(weight float64) StrandEvidence {
	ev := StrandEvidence{Weight: weight, K: h.K}
	if h.count > 0 {
		ev.H0Esh = h.sumEsh / h.count
		ev.H0Raw = h.sumRaw / h.count
	}
	return ev
}
