// Package sketch holds the engine's candidate test over strand summaries
// and the MinHash signatures the write path still builds beside it.
//
// The candidate test is sound: VCP requires a type-preserving injective
// correspondence that is total on the first strand's inputs, so VCP(a, b)
// is exactly 0 whenever a's typed input counts cannot inject into b's
// (Injects). The engine reads only the forward direction and runs that
// test itself, on typed input counts alone (Counts); Index.Candidates
// applies it both ways. Everything skipped here is rejected before the
// §5.5 size-ratio window even runs.
//
// Signatures: every indexed strand is also summarized into a short
// MinHash signature over cheap syntactic features (Features) and entered
// into a banded LSH index. No query reads either (DESIGN §8.2); they are
// built on every add, persisted in snapshots, and rebuilt at load and
// compaction.
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

// Defaults shape the signature (Bands×Rows hash functions). The banding
// is the one the engine uses: no flag or snapshot setting changes it.
const (
	DefaultBands = 24
	DefaultRows  = 3
)

// Config shapes the MinHash signature and its LSH banding.
type Config struct {
	// Bands is the number of LSH bands (0 selects DefaultBands).
	Bands int
	// Rows is the number of signature rows per band (0 selects
	// DefaultRows). The signature length is Bands*Rows.
	Rows int
}

// Normalized fills in zero fields with the defaults.
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

// Summary is one strand's entry in the index: its MinHash signature and
// its typed input counts (for the sound injectability test).
type Summary struct {
	Sig  Signature
	NInt int // inputs of bitvector type
	NMem int // inputs of memory type
}

// Summarize builds the strand's summary under cfg.
func Summarize(s *strand.Strand, cfg Config) Summary {
	return FromFeatureSet(s, Features(s), cfg)
}

// FromFeatureSet assembles a Summary from an already-extracted feature
// set.
func FromFeatureSet(s *strand.Strand, feats []uint64, cfg Config) Summary {
	sum := Counts(s)
	sum.Sig = FromFeatures(feats, cfg)
	return sum
}

// AdoptSignature is Summarize with a persisted signature: sig is used
// as-is when it has cfg's length (the snapshot-restore path), and
// recomputed from the strand otherwise.
func AdoptSignature(s *strand.Strand, sig Signature, cfg Config) Summary {
	if len(sig) != cfg.Len() {
		sig = Compute(s, cfg)
	}
	sum := Counts(s)
	sum.Sig = sig
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
// summary table the injectability test scans. Strands are added with
// sequential ids (0, 1, 2, ...) matching their position in the engine's
// unique-strand table. Add is not safe for concurrent use; Candidates is
// safe concurrently with other Candidates calls once building is done.
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

// bandKey hashes one band's rows of the signature.
func (ix *Index) bandKey(sig Signature, b int) uint64 {
	rows := ix.cfg.Rows
	h := uint64(14695981039346656037) ^ uint64(b)<<32
	for _, v := range sig[b*rows : (b+1)*rows] {
		h ^= uint64(v)
		h *= 1099511628211
	}
	return h
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
// at least Len()) and returns the number of candidates marked: every
// pair that is live in either direction. A pair that is
// injectability-dead in both directions is never a candidate (its VCP is
// exactly 0 both ways).
func (ix *Index) Candidates(sum Summary, mark []bool) int {
	count := 0
	for id, ts := range ix.sums {
		if (sum.Injects(ts) || ts.Injects(sum)) && !mark[id] {
			mark[id] = true
			count++
		}
	}
	return count
}
