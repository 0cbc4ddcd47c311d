// Package strand implements the paper's procedure decomposition
// (Algorithm 1): each basic block is sliced backwards at variable
// granularity into strands — the partial dependence chains that are the
// unit of semantic comparison. Strands contain only data dependencies;
// values flowing in over block boundaries are the strand's inputs.
package strand

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/ivl"
	"repro/internal/lift"
)

// Strand is a basic-block slice: an ordered subsequence of a block's IVL
// statements computing one or more of its variables, together with the
// inputs the computation needs.
type Strand struct {
	ProcName   string
	BlockIndex int
	Stmts      []ivl.Stmt
	Inputs     []ivl.Var

	keyOnce sync.Once
	key     string // CanonicalKey, built once
}

// NumVars returns the number of non-input variables the strand defines —
// the denominator of the VCP measure.
func (s *Strand) NumVars() int { return len(s.Stmts) }

// Vars returns the variables defined by the strand, in definition order.
func (s *Strand) Vars() []ivl.Var {
	out := make([]ivl.Var, 0, len(s.Stmts))
	for _, st := range s.Stmts {
		out = append(out, st.Dst)
	}
	return out
}

// String renders the strand with its inputs.
func (s *Strand) String() string {
	var b strings.Builder
	names := make([]string, len(s.Inputs))
	for i, v := range s.Inputs {
		names[i] = v.Name
	}
	fmt.Fprintf(&b, "strand %s/B%d inputs(%s)\n", s.ProcName, s.BlockIndex, strings.Join(names, ", "))
	for _, st := range s.Stmts {
		fmt.Fprintf(&b, "\t%s\n", st)
	}
	return b.String()
}

// FromBlock decomposes one lifted block into strands following the
// paper's Algorithm 1: repeatedly take the last instruction not yet used
// in any strand and slice backwards, collecting every earlier statement
// that defines a variable the slice references.
func FromBlock(procName string, b *lift.Block) []*Strand {
	n := len(b.Stmts)
	if n == 0 {
		return nil
	}
	blockInput := make(map[string]bool, len(b.Inputs))
	for _, v := range b.Inputs {
		blockInput[v.Name] = true
	}

	used := make([]bool, n)
	remaining := n
	var strands []*Strand

	for remaining > 0 {
		// maxUsed: the last not-yet-used statement.
		maxIdx := -1
		for i := n - 1; i >= 0; i-- {
			if !used[i] {
				maxIdx = i
				break
			}
		}
		used[maxIdx] = true
		remaining--

		take := make([]bool, n)
		take[maxIdx] = true
		varsRefed := make(map[string]ivl.Var)
		varsDefed := map[string]bool{}
		addRefs(b.Stmts[maxIdx].Rhs, varsRefed)
		varsDefed[b.Stmts[maxIdx].Dst.Name] = true

		for i := maxIdx - 1; i >= 0; i-- {
			st := b.Stmts[i]
			if _, needed := varsRefed[st.Dst.Name]; !needed {
				continue
			}
			take[i] = true
			addRefs(st.Rhs, varsRefed)
			varsDefed[st.Dst.Name] = true
			if !used[i] {
				used[i] = true
				remaining--
			}
		}

		s := &Strand{ProcName: procName, BlockIndex: b.Index}
		for i := 0; i < n; i++ {
			if take[i] {
				s.Stmts = append(s.Stmts, b.Stmts[i])
			}
		}
		// Inputs: referenced but not defined inside the strand. These are
		// necessarily block inputs (SSA within the block).
		var inputNames []string
		for name := range varsRefed {
			if !varsDefed[name] {
				inputNames = append(inputNames, name)
			}
		}
		sort.Strings(inputNames)
		for _, name := range inputNames {
			v := varsRefed[name]
			if !blockInput[name] {
				// A strand referencing a mid-block variable it does not
				// define would break SSA slicing; treat it as an input
				// anyway (it is a severed data dependence).
				_ = v
			}
			s.Inputs = append(s.Inputs, v)
		}
		strands = append(strands, s)
	}
	return strands
}

func addRefs(e ivl.Expr, refs map[string]ivl.Var) {
	ivl.WalkVars(e, func(v ivl.Var) {
		if _, ok := refs[v.Name]; !ok {
			refs[v.Name] = v
		}
	})
}

// FromProc decomposes every block of a lifted procedure.
func FromProc(p *lift.Proc) []*Strand {
	var out []*Strand
	for _, b := range p.Blocks {
		out = append(out, FromBlock(p.Name, b)...)
	}
	return out
}

// CanonicalKey returns an alpha-renaming-invariant structural key for the
// strand: variables are numbered in order of first appearance, so two
// strands that differ only in variable names share a key. Used for strand
// deduplication and verifier-result caching. The key is built on first
// use and kept: a strand must not change once it has been asked for it
// (extraction and snapshot decoding both finish a strand before handing
// it out).
func (s *Strand) CanonicalKey() string {
	s.keyOnce.Do(s.buildKey)
	return s.key
}

// buildKey renders the key. Numbering follows first appearance in the
// order inputs, then per statement the right-hand side's references
// before the defined variable — although the statement prints the
// definition first — which is why the right-hand side is walked once to
// number and once to print.
func (s *Strand) buildKey() {
	num := make(map[string]int, len(s.Inputs)+len(s.Stmts))
	number := func(v ivl.Var) {
		if _, ok := num[v.Name]; !ok {
			num[v.Name] = len(num)
		}
	}
	name := func(dst []byte, v ivl.Var) []byte {
		number(v)
		return strconv.AppendInt(append(dst, 'x'), int64(num[v.Name]), 10)
	}
	var b []byte
	for _, in := range s.Inputs {
		b = append(name(b, in), ':')
		b = append(append(b, in.Type.String()...), ';')
	}
	b = append(b, '|')
	for _, st := range s.Stmts {
		ivl.WalkVars(st.Rhs, number)
		b = append(name(b, st.Dst), '=')
		b = append(ivl.AppendRenamed(b, st.Rhs, name), ';')
	}
	s.key = string(b)
}
