// Package sketch implements a MinHash/LSH prefilter over strand
// features, the syntactic first stage the binary-similarity literature
// places in front of expensive semantic comparison (GitZ-style
// statistical prefiltering; see PAPERS.md). A strand is summarized once
// at index time into a short MinHash signature over cheap syntactic
// features — operator bag, input/variable counts, constant set, and
// expression-tree shape shingles — and signatures are bucketed with
// banded locality-sensitive hashing.
//
// The candidate rule has a sound core and an optional heuristic tier.
//
// Sound core: VCP requires a type-preserving injective correspondence
// that is total on the first strand's inputs, so VCP(a, b) is exactly 0
// whenever a's typed input counts cannot inject into b's (Injects). A
// pair that is dead in both directions is never a candidate. The engine
// reads only the forward direction and runs that test itself, on typed
// input counts alone (Counts); it consults this package's MinHash rule
// only at the heuristic tier.
//
// Heuristic tier (off by default, Config.MinContainment > 0): a live
// pair is additionally required to share a band bucket (the classic
// symmetric-Jaccard LSH test) or to clear an estimated feature
// containment. Containment rather than plain Jaccard because VCP is
// asymmetric: a small strand embedded in a larger one scores high VCP
// while its feature Jaccard stays low; the estimate divides the
// Jaccard-derived intersection by the smaller set size. Strand pairs
// where either side has a tiny feature set are always candidates: their
// sketches are too noisy to trust and their VCP is cheap anyway. The
// heuristic tier trades a small, measured recall loss (see the
// differential harness in internal/core) for a larger skip rate, so it
// is opt-in.
//
// Everything skipped here is rejected before the §5.5 size-ratio window
// even runs.
//
// Everything here is deterministic: the same strand always produces the
// same signature (fixed seeds, no map-iteration dependence), so
// signatures can be persisted in index snapshots and recomputed at load
// time interchangeably.
package sketch

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"repro/internal/ivl"
	"repro/internal/strand"
)

// Defaults shape the signature (Bands×Rows hash functions) and the
// heuristic tier. The banding puts the LSH S-curve threshold near
// Jaccard 0.3; SuggestedMinContainment was calibrated with the
// ground-truth sweep in internal/core (RUN_GEOM_SWEEP): nearly every
// pair with true VCP >= 0.5 has feature containment >= 0.5, so gating
// at 0.45 leaves headroom for MinHash estimation noise.
const (
	DefaultBands = 24
	DefaultRows  = 3
	// SuggestedMinContainment is the calibrated setting for the
	// opt-in heuristic tier. It is intentionally NOT the default:
	// MinContainment = 0 keeps the prefilter sound (rankings
	// byte-identical to the exhaustive loop).
	SuggestedMinContainment = 0.45
	// SmallSetFeatures is the feature-set size at or under which a
	// strand's sketch is considered too noisy to gate on: pairs where
	// either side is this small always pass the heuristic tier.
	SmallSetFeatures = 12
)

// Config shapes the MinHash signature, its LSH banding, and the
// heuristic tier of the candidate rule.
type Config struct {
	// Bands is the number of LSH bands (0 selects DefaultBands).
	Bands int
	// Rows is the number of signature rows per band (0 selects
	// DefaultRows). The signature length is Bands*Rows.
	Rows int
	// MinContainment, when > 0, enables the heuristic tier: a live
	// pair with no band collision and an estimated feature containment
	// below this level is not a candidate. 0 (the default) keeps the
	// prefilter sound — only provably-zero pairs are skipped.
	MinContainment float64
}

// Normalized fills in zero fields with the defaults. MinContainment is
// left alone: zero is a meaningful setting (heuristic tier off).
func (c Config) Normalized() Config {
	if c.Bands <= 0 {
		c.Bands = DefaultBands
	}
	if c.Rows <= 0 {
		c.Rows = DefaultRows
	}
	return c
}

// Len returns the signature length Bands*Rows.
func (c Config) Len() int {
	c = c.Normalized()
	return c.Bands * c.Rows
}

// Signature is a MinHash signature: one minimum per hash function.
type Signature []uint32

// splitmix64 is the SplitMix64 finalizer: a fast, well-mixed 64-bit
// permutation used both to derive per-function seeds and as the hash
// family itself.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// multCap bounds the multiplicity encoding of bag features: the k-th
// occurrence of an operator is its own set element up to this many, so
// the set representation still reflects operator counts without letting
// one hot loop dominate the signature.
const multCap = 8

// Features returns the strand's feature set as 64-bit hashes. The set
// is deterministic and sorted; it underlies both the MinHash signature
// and (directly) tests. Feature classes:
//
//   - counts: number of inputs, log2-bucketed number of defined
//     variables ("nin:3", "nv:2")
//   - operator bag: every operator/builtin occurrence with multiplicity
//     up to multCap ("n:+#2", "n:load#1")
//   - constant set: every distinct constant value ("c:0x2a")
//   - shape shingles: one-level subtree shapes, child operators sorted
//     under commutative parents ("t:+(load,var)"), plus per-statement
//     root tokens with multiplicity ("r:store#1")
func Features(s *strand.Strand) []uint64 {
	set := map[string]bool{}
	set["nin:"+strconv.Itoa(len(s.Inputs))] = true
	set["nv:"+strconv.Itoa(log2bucket(len(s.Stmts)))] = true

	opCount := map[string]int{}
	rootCount := map[string]int{}
	addBag := func(m map[string]int, prefix, tok string) {
		m[tok]++
		if n := m[tok]; n <= multCap {
			set[prefix+tok+"#"+strconv.Itoa(n)] = true
		}
	}
	var walk func(e ivl.Expr)
	walk = func(e ivl.Expr) {
		tok, children, commutative := describe(e)
		if c, ok := e.(ivl.ConstExpr); ok {
			set["c:"+strconv.FormatUint(c.Val, 16)] = true
		}
		if tok != "var" && tok != "const" {
			addBag(opCount, "n:", tok)
		}
		if len(children) > 0 {
			parts := make([]string, len(children))
			for i, ch := range children {
				parts[i], _, _ = describe(ch)
			}
			if commutative {
				sort.Strings(parts)
			}
			set["t:"+tok+"("+strings.Join(parts, ",")+")"] = true
		}
		for _, ch := range children {
			walk(ch)
		}
	}
	for _, st := range s.Stmts {
		tok, _, _ := describe(st.Rhs)
		addBag(rootCount, "r:", tok)
		walk(st.Rhs)
	}

	out := make([]uint64, 0, len(set))
	for f := range set {
		out = append(out, hashString(f))
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// describe returns a node's operator token, its children, and whether
// child order is insignificant.
func describe(e ivl.Expr) (tok string, children []ivl.Expr, commutative bool) {
	switch t := e.(type) {
	case ivl.VarExpr:
		return "var", nil, false
	case ivl.ConstExpr:
		return "const", nil, false
	case ivl.UnExpr:
		return "u" + t.Op.String(), []ivl.Expr{t.X}, false
	case ivl.BinExpr:
		return t.Op.String(), []ivl.Expr{t.X, t.Y}, t.Op.IsCommutative()
	case ivl.IteExpr:
		return "ite", []ivl.Expr{t.Cond, t.Then, t.Else}, false
	case ivl.TruncExpr:
		return "trunc" + strconv.Itoa(int(t.Bits)), []ivl.Expr{t.X}, false
	case ivl.SextExpr:
		return "sext" + strconv.Itoa(int(t.Bits)), []ivl.Expr{t.X}, false
	case ivl.LoadExpr:
		return "load", []ivl.Expr{t.Mem, t.Addr}, false
	case ivl.StoreExpr:
		return "store", []ivl.Expr{t.Mem, t.Addr, t.Val}, false
	case ivl.CallExpr:
		return t.Sym, t.Args, false
	}
	return "?", nil, false
}

func log2bucket(n int) int {
	b := 0
	for n > 1 {
		n >>= 1
		b++
	}
	return b
}

// Compute returns the strand's MinHash signature under cfg. It is a
// pure function of the strand's statements and inputs: two strands with
// equal feature sets share a signature. An empty strand (no statements)
// yields the all-max signature.
func Compute(s *strand.Strand, cfg Config) Signature {
	return FromFeatures(Features(s), cfg)
}

// Summary is everything the candidate rule knows about one strand: its
// MinHash signature, its feature-set size (for the containment
// estimate), and its typed input counts (for the sound injectability
// test).
type Summary struct {
	Sig   Signature
	NFeat int
	NInt  int // inputs of bitvector type
	NMem  int // inputs of memory type
}

// Summarize builds the strand's candidate-rule summary under cfg.
func Summarize(s *strand.Strand, cfg Config) Summary {
	feats := Features(s)
	return FromFeatureSet(s, feats, cfg)
}

// FromFeatureSet assembles a Summary from an already-extracted feature
// set, optionally adopting a persisted signature: when sig is non-nil
// and the right length it is used as-is instead of re-MinHashing (the
// snapshot-restore path).
func FromFeatureSet(s *strand.Strand, feats []uint64, cfg Config) Summary {
	return adoptSignature(s, feats, nil, cfg)
}

// AdoptSignature is FromFeatureSet with a persisted signature.
func AdoptSignature(s *strand.Strand, sig Signature, cfg Config) Summary {
	return adoptSignature(s, Features(s), sig, cfg)
}

func adoptSignature(s *strand.Strand, feats []uint64, sig Signature, cfg Config) Summary {
	if len(sig) != cfg.Len() {
		sig = FromFeatures(feats, cfg)
	}
	sum := Counts(s)
	sum.Sig, sum.NFeat = sig, len(feats)
	return sum
}

// Counts returns the part of the strand's summary the sound
// injectability test reads, its typed input counts, and nothing else: no
// features, no signature.
func Counts(s *strand.Strand) Summary {
	var sum Summary
	for _, v := range s.Inputs {
		if v.Type == ivl.Mem {
			sum.NMem++
		} else {
			sum.NInt++
		}
	}
	return sum
}

// Injects reports whether a's typed inputs can inject into b's — the
// necessary condition for VCP(a, b) > 0: the correspondence γ must be
// injective, type-preserving, and total on a's inputs. When it fails,
// VCP(a, b) is exactly 0 and the verifier call can be skipped with no
// effect on any score.
func (a Summary) Injects(b Summary) bool {
	return a.NInt <= b.NInt && a.NMem <= b.NMem
}

// FromFeatures builds the MinHash signature of an explicit feature set.
func FromFeatures(feats []uint64, cfg Config) Signature {
	k := cfg.Len()
	sig := make(Signature, k)
	for i := range sig {
		sig[i] = math.MaxUint32
	}
	seeds := make([]uint64, k)
	for i := range seeds {
		seeds[i] = splitmix64(0x657368736b746368 + uint64(i)) // "eshsktch"
	}
	for _, f := range feats {
		for i := 0; i < k; i++ {
			if v := uint32(splitmix64(f^seeds[i]) >> 32); v < sig[i] {
				sig[i] = v
			}
		}
	}
	return sig
}

// Index is a banded LSH index over strand summaries, plus the flat
// summary table the injectability and containment tests scan. Strands
// are added with sequential ids (0, 1, 2, ...) matching their position
// in the engine's unique-strand table. Add is not safe for concurrent
// use; Candidates is safe concurrently with other Candidates calls once
// building is done.
type Index struct {
	cfg   Config
	bands []map[uint64][]int32
	sums  []Summary
}

// NewIndex returns an empty index with cfg's banding.
func NewIndex(cfg Config) *Index {
	cfg = cfg.Normalized()
	ix := &Index{cfg: cfg, bands: make([]map[uint64][]int32, cfg.Bands)}
	for b := range ix.bands {
		ix.bands[b] = map[uint64][]int32{}
	}
	return ix
}

// Config returns the index's banding configuration.
func (ix *Index) Config() Config { return ix.cfg }

// Len returns the number of summaries added.
func (ix *Index) Len() int { return len(ix.sums) }

// Summary returns the id-th strand's summary.
func (ix *Index) Summary(id int) Summary { return ix.sums[id] }

// bandKey hashes one band's rows of the signature. It delegates to the
// shared bandKeyFor so the scan-mode index and the retrieval table
// always bucket identically.
func (ix *Index) bandKey(sig Signature, b int) uint64 {
	return bandKeyFor(sig, ix.cfg.Rows, b)
}

// Add inserts the next strand's summary; ids are assigned sequentially.
// It returns the id.
func (ix *Index) Add(sum Summary) int {
	if len(sum.Sig) != ix.cfg.Len() {
		panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
			len(sum.Sig), ix.cfg.Bands, ix.cfg.Rows))
	}
	id := int32(len(ix.sums))
	ix.sums = append(ix.sums, sum)
	for b := range ix.bands {
		key := ix.bandKey(sum.Sig, b)
		ix.bands[b][key] = append(ix.bands[b][key], id)
	}
	return int(id)
}

// Candidates marks every indexed strand that is a verifier candidate
// for the strand summarized by sum (mark[id] = true; len(mark) must be
// at least Len()) and returns the number of candidates marked. A pair
// that is injectability-dead in both directions is never a candidate
// (its VCP is exactly 0 both ways). With the heuristic tier enabled
// (cfg.MinContainment > 0), a live pair must additionally collide in a
// band, clear the containment estimate, or involve a tiny feature set.
func (ix *Index) Candidates(sum Summary, mark []bool) int {
	banded := ix.banded(sum)
	count := 0
	for id := range ix.sums {
		if ix.candidate(sum, id, banded) && !mark[id] {
			mark[id] = true
			count++
		}
	}
	return count
}

// CandidatesAmong is Candidates restricted to the listed strands: it
// applies the same rule to each of ids and touches no other entry of
// mark, so a caller that owes only a few columns pays for those.
func (ix *Index) CandidatesAmong(sum Summary, ids []int32, mark []bool) {
	banded := ix.banded(sum)
	for _, id := range ids {
		if ix.candidate(sum, int(id), banded) {
			mark[id] = true
		}
	}
}

// banded marks the strands that share an LSH band bucket with sum; nil
// at the sound tier, which never consults the bands.
func (ix *Index) banded(sum Summary) []bool {
	if len(sum.Sig) != ix.cfg.Len() {
		panic(fmt.Sprintf("sketch: signature length %d does not match config %dx%d",
			len(sum.Sig), ix.cfg.Bands, ix.cfg.Rows))
	}
	if ix.cfg.MinContainment <= 0 {
		return nil
	}
	banded := make([]bool, len(ix.sums))
	for b := range ix.bands {
		for _, id := range ix.bands[b][ix.bandKey(sum.Sig, b)] {
			banded[id] = true
		}
	}
	return banded
}

// candidate is the candidate rule for one indexed strand.
func (ix *Index) candidate(sum Summary, id int, banded []bool) bool {
	ts := ix.sums[id]
	if !sum.Injects(ts) && !ts.Injects(sum) {
		return false // provably zero in both directions
	}
	return banded == nil || banded[id] || sum.NFeat <= SmallSetFeatures || ts.NFeat <= SmallSetFeatures ||
		estContainment(sum.Sig, ts.Sig, sum.NFeat, ts.NFeat) >= ix.cfg.MinContainment
}

// estContainment estimates |A∩B| / min(|A|,|B|) of the two underlying
// feature sets from the signature agreement rate. The agreement rate of
// two MinHash signatures is an unbiased estimate of the Jaccard J =
// |A∩B| / |A∪B|; with the exact set sizes stored alongside, the
// intersection follows as J/(1+J)·(|A|+|B|), and dividing by the
// smaller set turns the symmetric estimate into the asymmetric overlap
// the VCP loop actually cares about.
func estContainment(a, b Signature, na, nb int) float64 {
	eq := 0
	for i := range a {
		if a[i] == b[i] {
			eq++
		}
	}
	if eq == len(a) {
		return 1
	}
	min := na
	if nb < min {
		min = nb
	}
	if min <= 0 {
		return 0
	}
	j := float64(eq) / float64(len(a))
	return j / (1 + j) * float64(na+nb) / float64(min)
}
