package bindiff

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/minic"
)

func extract(t *testing.T, p *asm.Proc) *Features {
	t.Helper()
	f, err := Extract(p)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// buildLib compiles a set of decoy packages plus one vuln with a
// toolchain, returning the feature library.
func buildLib(t *testing.T, tcName string, patched bool) []*Features {
	t.Helper()
	tc, ok := compile.ByName(tcName)
	if !ok {
		t.Fatal("no toolchain")
	}
	var lib []*Features
	v := corpus.Vulns()[0]
	p, err := corpus.CompileVuln(v, tc, patched)
	if err != nil {
		t.Fatal(err)
	}
	lib = append(lib, extract(t, p))
	for _, d := range corpus.Decoys()[:4] {
		procs, err := compile.CompileAll(minic.MustParse(d.Src), tc, compile.O2())
		if err != nil {
			t.Fatal(err)
		}
		for _, dp := range procs {
			dp.Source.SourceSym = dp.Name
			lib = append(lib, extract(t, dp))
		}
	}
	return lib
}

func TestSelfDiffMatchesEverything(t *testing.T) {
	lib := buildLib(t, "gcc-4.9", false)
	matches := Diff(lib, lib)
	if len(matches) != len(lib) {
		t.Fatalf("self diff matched %d of %d", len(matches), len(lib))
	}
	for _, m := range matches {
		if m.Query.Name != m.Target.Name {
			t.Errorf("self diff paired %s with %s", m.Query.Name, m.Target.Name)
		}
		if m.Similarity < 0.99 {
			t.Errorf("self match similarity %v", m.Similarity)
		}
	}
}

func TestCrossVendorMostlyFails(t *testing.T) {
	// Table 3's result: across vendors (and with patches), BinDiff
	// finds the correct pairing only when block/branch structure is
	// small and preserved. We assert the *shape*: the correct-match rate
	// is well below the self-diff rate.
	q := buildLib(t, "gcc-4.9", false)
	tgt := buildLib(t, "icc-15.0.1", true)
	matches := Diff(q, tgt)
	correct := 0
	for _, m := range matches {
		if m.Query.Source.SourceSym == m.Target.Source.SourceSym {
			correct++
		}
	}
	if correct == len(q) {
		t.Errorf("cross-vendor diff matched everything correctly (%d) — too good for a structural matcher", correct)
	}
}

func TestFeaturesExtracted(t *testing.T) {
	src := `proc f
	test rdi, rdi
	je out
	call g
	mov rax, 1
	ret
out:
	xor eax, eax
	ret
endp`
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	f := extract(t, p)
	if f.Blocks != 3 || f.Edges != 2 || f.Calls != 1 {
		t.Errorf("features = %+v", f)
	}
	if f.MnHash == 0 || f.MnHash == 1 {
		t.Errorf("mnemonic hash = %d", f.MnHash)
	}
	if len(f.Degrees) != 3 {
		t.Errorf("degrees = %v", f.Degrees)
	}
}

func TestMnemonicHashCommutative(t *testing.T) {
	// Reordered instructions keep the same small-prime product.
	p1, _ := asm.ParseProc("proc a\n\tadd rax, 1\n\tsub rbx, 2\n\tret\nendp")
	p2, _ := asm.ParseProc("proc b\n\tsub rbx, 2\n\tadd rax, 1\n\tret\nendp")
	if extract(t, p1).MnHash != extract(t, p2).MnHash {
		t.Error("mnemonic product should be order-independent")
	}
}

func TestStructuralSimilarityBounds(t *testing.T) {
	p1, _ := asm.ParseProc("proc a\n\tadd rax, 1\n\tret\nendp")
	f := extract(t, p1)
	if s := structuralSimilarity(f, f); s < 0.99 || s > 1.01 {
		t.Errorf("self structural similarity = %v", s)
	}
}
