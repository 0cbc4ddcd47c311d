// Package cfg builds control flow graphs of basic blocks from assembly
// procedures. It stands in for the disassembler-side procedure analysis
// (the paper used an IDA Pro script) and feeds block-level strand
// extraction, as well as the structural features used by the BinDiff-like
// baseline.
package cfg

import (
	"fmt"
	"strings"

	"repro/internal/asm"
)

// Block is a basic block: a maximal single-entry straight-line
// instruction sequence. Insts never contains LABEL pseudo-instructions.
type Block struct {
	Index int
	Label string // the label that starts the block, if any
	Insts []asm.Inst
	Succs []int
	Preds []int
}

// Graph is the control flow graph of one procedure. Blocks[0] is the
// entry block.
type Graph struct {
	Proc   *asm.Proc
	Blocks []*Block
}

// Build constructs the CFG for p using the standard leader algorithm:
// leaders are the first instruction, every label target, and every
// instruction following a branch or return.
func Build(p *asm.Proc) (*Graph, error) {
	// Pass 1: find leaders over the non-label instruction stream while
	// recording which stream index each label names.
	type flatInst struct {
		inst asm.Inst
		lbl  string // label attached to this instruction, if any
	}
	var flat []flatInst
	pending := ""
	labelAt := make(map[string]int)
	for _, in := range p.Insts {
		if in.Op == asm.LABEL {
			if pending == "" {
				pending = in.Sym
			}
			labelAt[in.Sym] = len(flat)
			continue
		}
		flat = append(flat, flatInst{inst: in, lbl: pending})
		pending = ""
	}
	if len(flat) == 0 {
		return nil, fmt.Errorf("cfg: procedure %q has no instructions", p.Name)
	}
	if pending != "" {
		// Trailing label with no instruction after it; treat as naming the end.
		labelAt[pending] = len(flat)
	}

	leader := make([]bool, len(flat)+1)
	leader[0] = true
	for i, fi := range flat {
		if fi.inst.IsBranch() {
			t, ok := labelAt[fi.inst.Sym]
			if !ok {
				return nil, fmt.Errorf("cfg: %s: unknown label %q", p.Name, fi.inst.Sym)
			}
			if t < len(flat) {
				leader[t] = true
			}
			leader[i+1] = true
		} else if fi.inst.Op == asm.RET {
			leader[i+1] = true
		}
		if fi.lbl != "" {
			leader[i] = true
		}
	}

	// Pass 2: carve blocks.
	g := &Graph{Proc: p}
	blockAt := make(map[int]int) // stream index of leader -> block index
	start := 0
	for i := 1; i <= len(flat); i++ {
		if i == len(flat) || leader[i] {
			b := &Block{Index: len(g.Blocks), Label: flat[start].lbl}
			for j := start; j < i; j++ {
				b.Insts = append(b.Insts, flat[j].inst)
			}
			blockAt[start] = b.Index
			g.Blocks = append(g.Blocks, b)
			start = i
		}
	}

	// Pass 3: edges.
	blockStarts := make([]int, len(g.Blocks))
	{
		k := 0
		for i := range flat {
			if leader[i] {
				blockStarts[k] = i
				k++
			}
		}
	}
	addEdge := func(from, to int) {
		g.Blocks[from].Succs = append(g.Blocks[from].Succs, to)
		g.Blocks[to].Preds = append(g.Blocks[to].Preds, from)
	}
	for bi, b := range g.Blocks {
		last := b.Insts[len(b.Insts)-1]
		endIdx := blockStarts[bi] + len(b.Insts)
		switch {
		case last.Op == asm.RET:
			// no successors
		case last.Op == asm.JMP:
			if t := labelAt[last.Sym]; t < len(flat) {
				addEdge(bi, blockAt[t])
			}
		case last.Op == asm.JCC:
			if t := labelAt[last.Sym]; t < len(flat) {
				addEdge(bi, blockAt[t])
			}
			if endIdx < len(flat) {
				addEdge(bi, blockAt[endIdx])
			}
		default:
			if endIdx < len(flat) {
				addEdge(bi, blockAt[endIdx])
			}
		}
	}
	return g, nil
}

// NumEdges returns the total number of CFG edges.
func (g *Graph) NumEdges() int {
	n := 0
	for _, b := range g.Blocks {
		n += len(b.Succs)
	}
	return n
}

// NumCalls returns the number of CALL instructions in the procedure.
func (g *Graph) NumCalls() int {
	n := 0
	for _, b := range g.Blocks {
		for _, in := range b.Insts {
			if in.Op == asm.CALL {
				n++
			}
		}
	}
	return n
}

// String renders the graph for debugging.
func (g *Graph) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cfg %s (%d blocks, %d edges)\n", g.Proc.Name, len(g.Blocks), g.NumEdges())
	for _, blk := range g.Blocks {
		fmt.Fprintf(&b, "B%d", blk.Index)
		if blk.Label != "" {
			fmt.Fprintf(&b, " (%s)", blk.Label)
		}
		fmt.Fprintf(&b, " -> %v\n", blk.Succs)
		for _, in := range blk.Insts {
			fmt.Fprintf(&b, "\t%s\n", in)
		}
	}
	return b.String()
}
