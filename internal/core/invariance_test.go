package core

import (
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/lift"
)

// Oracles from the paper's own invariances (ROADMAP R): relations a test
// can check with no second implementation of the engine.

// TestSelfMatchRanksFirst is R(d)'s engine half. Every C1 procedure is
// queried against C1, which holds it: each of its strands finds itself,
// VCP 1 (TestSelfMatchVCP holds the verifier to that), and a per-strand
// max cannot exceed 1, so its GES and its S-LOG score must each be >=
// every other target's, compared exactly. Ties are allowed: a target
// holding every query strand scores the same.
func TestSelfMatchRanksFirst(t *testing.T) {
	if testing.Short() {
		t.Skip("self-match census is slow")
	}
	procs := buildDiffCorpus(t)
	db := NewDB(Options{})
	fillDB(t, db, procs)
	for _, p := range procs {
		rep, err := db.QueryCtx(context.Background(), p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name, err)
		}
		self := slices.IndexFunc(rep.Results, func(ts TargetScore) bool {
			return ts.Target.Name == p.Name && ts.Target.Source == p.Source
		})
		if self < 0 {
			t.Fatalf("%s (%s): not among its own results", p.Name, p.Source.Key())
		}
		me := rep.Results[self]
		for _, ts := range rep.Results {
			if ts.GES > me.GES || ts.SLOG > me.SLOG {
				t.Errorf("%s (%s): GES %v, S-LOG %v; target %s (%s) scores GES %v, S-LOG %v",
					p.Name, p.Source.Key(), me.GES, me.SLOG, ts.Target.Name, ts.Target.Source.Key(), ts.GES, ts.SLOG)
				break // one outscoring target names the failure
			}
		}
		rep.Release()
	}
	t.Logf("%d procedures ranked first or tied for first against themselves", len(procs))
}

// TestMonotoneEvidence is R(c): adding a strand to a target can only add
// evidence, because Pr(s_q|t) reads a max over the target's strands. A
// fixed stride of C1 targets each get one dead instruction appended to one
// block (deadCopyVariant), which must add a strand and keep every other:
// the variant's strand keys are a strict superset of the original's. Then,
// at the sound tier, every Table 1 query strand's MaxVCP against the
// variant must be >= its MaxVCP against the original.
func TestMonotoneEvidence(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus census is slow")
	}
	const stride = 2
	procs := buildDiffCorpus(t)
	orig, variants := NewDB(Options{}), NewDB(Options{})
	built := 0
	for i := 0; i < len(procs); i += stride {
		p := procs[i]
		v, ok := deadCopyVariant(t, p)
		if !ok {
			continue
		}
		before, after := strandKeys(t, p), strandKeys(t, v)
		added := 0
		for k := range after {
			if !before[k] {
				added++
			}
		}
		if added == 0 || len(after)-added != len(before) {
			t.Fatalf("%s (%s): variant keeps %d of %d strand keys and adds %d, want all and at least one",
				p.Name, p.Source.Key(), len(after)-added, len(before), added)
		}
		fillDB(t, orig, []*asm.Proc{p})
		fillDB(t, variants, []*asm.Proc{v})
		built++
	}
	if built < len(procs)/stride/2 {
		t.Fatalf("only %d of %d strided targets had a block to extend", built, (len(procs)+stride-1)/stride)
	}

	qtc, ok := compile.ByName("gcc-4.6")
	if !ok {
		t.Fatal("no gcc-4.6 toolchain")
	}
	pairs, rose := 0, 0
	for _, vuln := range testcorpus.Vulns() {
		q, err := testcorpus.CompileVuln(vuln, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		was, err := orig.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		now, err := variants.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		if len(was.Targets) != built || len(now.Targets) != built {
			t.Fatalf("%s: %d and %d targets, want %d", q.Name, len(was.Targets), len(now.Targets), built)
		}
		for k, ps := range was.Targets {
			for i, v := range ps.MaxVCP {
				w := now.Targets[k].MaxVCP[i]
				if w < v {
					t.Errorf("%s strand %d against %s (%s): MaxVCP %v with a strand added, %v without",
						q.Name, i, ps.Target.Name, ps.Target.Source.Key(), w, v)
				}
				pairs++
				if w > v {
					rose++
				}
			}
		}
		was.Release()
		now.Release()
	}
	t.Logf("%d variants (stride %d), %d (query strand, target) maxima: none fell, %d rose", built, stride, pairs, rose)
}

// strandKeys is the set of canonical keys of p's indexed strands.
func strandKeys(t *testing.T, p *asm.Proc) map[string]bool {
	t.Helper()
	strands, _, err := decompose(p, Options{})
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	keys := map[string]bool{}
	for _, s := range strands {
		keys[s.CanonicalKey()] = true
	}
	return keys
}

// deadCopyVariant returns p with one instruction appended to its first
// block that has room for it, before the block's terminator: mov dst, src,
// where dst is a register the block neither reads nor writes (and no call
// argument, so no call's recovered arity moves) and a mov sets no flags.
// src is the register whose last definition in the block has the largest
// backward slice (at least four statements, so the copy's strand passes
// the size filter) among those the block reads again later but does not
// copy already. Being read later is what keeps every original strand:
// Algorithm 1 starts a strand only at a statement no later strand
// covered, and a definition read later in its block is covered by the
// reader's strand, so the copy's slice swallows no strand's starting
// point. ok is false when no block qualifies.
func deadCopyVariant(t *testing.T, p *asm.Proc) (*asm.Proc, bool) {
	t.Helper()
	g, err := cfg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	lp, err := lift.LiftProc(g)
	if err != nil {
		t.Fatal(err)
	}
	last := -1 // the block's last instruction in the label-free stream
	for bi, b := range g.Blocks {
		last += len(b.Insts)
		src, ok := widestReadAgain(lp.Blocks[bi].Stmts)
		if !ok {
			continue
		}
		dst, ok := untouchedReg(lp.Blocks[bi])
		if !ok {
			continue
		}
		mov := asm.Inst{Op: asm.MOV, Dst: asm.R(dst, asm.Width8), Src: asm.R(src, asm.Width8)}
		// Before a terminator, after the labels naming its block; else
		// after the block's last instruction, before the next block's.
		term := b.Insts[len(b.Insts)-1].IsTerminator()
		v := *p
		v.Insts = nil
		n := -1
		for _, in := range p.Insts {
			if in.Op != asm.LABEL {
				n++
			}
			if term && n == last && in.Op != asm.LABEL {
				v.Insts = append(v.Insts, mov)
			}
			v.Insts = append(v.Insts, in)
			if !term && n == last && in.Op != asm.LABEL {
				v.Insts = append(v.Insts, mov)
			}
		}
		return &v, true
	}
	return nil, false
}

// widestReadAgain picks the register deadCopyVariant copies from stmts, a
// lifted block: among registers whose last definition there is read, and
// not copied, by a later statement, the one whose definition has the largest backward
// slice, of at least four statements; ties go to the lower register
// number. A terminator lifts to no register definition (a jcc to its
// condition, jmp and ret to nothing), so the last definition in the block
// is the value an instruction appended before the terminator reads.
func widestReadAgain(stmts []ivl.Stmt) (asm.Reg, bool) {
	best, bestSize := asm.Reg(0), 3
	for r := asm.Reg(0); r < asm.NumRegs; r++ {
		prefix := r.Name(asm.Width8) + "_"
		d := -1
		for i, st := range stmts {
			if strings.HasPrefix(st.Dst.Name, prefix) {
				d = i
			}
		}
		if d < 0 || !readNotCopied(stmts, d) {
			continue
		}
		if size := sliceSize(stmts, d); size > bestSize {
			best, bestSize = r, size
		}
	}
	return best, bestSize > 3
}

// readNotCopied reports whether a statement after stmts[d] reads its
// variable and none is a plain copy of it, whose strand a second copy
// would only repeat.
func readNotCopied(stmts []ivl.Stmt, d int) bool {
	name := stmts[d].Dst.Name
	read := false
	for _, st := range stmts[d+1:] {
		if v, ok := st.Rhs.(ivl.VarExpr); ok && v.V.Name == name {
			return false
		}
		ivl.WalkVars(st.Rhs, func(v ivl.Var) { read = read || v.Name == name })
	}
	return read
}

// sliceSize counts the statements of stmts[d]'s backward slice, itself
// included.
func sliceSize(stmts []ivl.Stmt, d int) int {
	need := map[string]bool{}
	ivl.WalkVars(stmts[d].Rhs, func(v ivl.Var) { need[v.Name] = true })
	size := 1
	for i := d - 1; i >= 0; i-- {
		if need[stmts[i].Dst.Name] {
			size++
			ivl.WalkVars(stmts[i].Rhs, func(v ivl.Var) { need[v.Name] = true })
		}
	}
	return size
}

// untouchedReg is the first of r11, r10, r12–r15, rbx and rbp that the
// lifted block b neither reads nor writes. The call argument registers and
// rsp are never picked.
func untouchedReg(b *lift.Block) (asm.Reg, bool) {
	touched := func(r asm.Reg) bool {
		prefix := r.Name(asm.Width8) + "_"
		for _, v := range b.Inputs {
			if strings.HasPrefix(v.Name, prefix) {
				return true
			}
		}
		for _, st := range b.Stmts {
			if strings.HasPrefix(st.Dst.Name, prefix) {
				return true
			}
		}
		return false
	}
	for _, r := range []asm.Reg{asm.R11, asm.R10, asm.R12, asm.R13, asm.R14, asm.R15, asm.RBX, asm.RBP} {
		if !touched(r) {
			return r, true
		}
	}
	return 0, false
}
