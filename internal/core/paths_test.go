package core

import (
	"testing"

	"repro/internal/compile"
	"repro/internal/minic"
	"repro/internal/vcp"
)

// The §6.6 extension: small procedures whose blocks are too short to
// carry significant strands gain representation through multi-block path
// strands.

// A "wrapper"-shaped procedure: each block is tiny, so block-level
// strands mostly fall under the minimum-size filter.
const wrapperSrc = `
func tiny_wrap(p, n) {
	if (p == 0) {
		return 0 - 1;
	}
	if (n <= 0) {
		return 0 - 2;
	}
	var r = process_one(p, n);
	if (r < 0) {
		log_event(r);
	}
	return r;
}`

func TestPathStrandsIncreaseSmallProcCoverage(t *testing.T) {
	prog := minic.MustParse(wrapperSrc)
	gcc, _ := compile.ByName("gcc-4.9")
	icc, _ := compile.ByName("icc-15.0.1")
	pg, err := compile.Compile(prog, "tiny_wrap", gcc, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	pi, err := compile.Compile(prog, "tiny_wrap", icc, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	pi.Name = "tiny_wrap_icc"

	run := func(pathLen int) (*Report, int) {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 5}, PathLen: pathLen})
		if err := db.AddTarget(pi); err != nil {
			t.Fatal(err)
		}
		rep, err := db.Query(pg)
		if err != nil {
			t.Fatal(err)
		}
		return rep, rep.NumStrands
	}

	_, blockStrands := run(0)
	repPaths, pathStrands := run(2)
	if pathStrands <= blockStrands {
		t.Errorf("path decomposition added no strands: %d vs %d", pathStrands, blockStrands)
	}
	if repPaths.Results[0].GES == 0 && repPaths.Results[0].SLOG == 0 {
		t.Error("path strands produced no evidence at all")
	}
}

func TestPathStrandsRespectBlockLimit(t *testing.T) {
	// A procedure above the block limit must not pay the path cost
	// (observable through the strand count staying at block level).
	src := `
func many_blocks(x) {
	var r = 0;
	if (x > 1) { r = r + 1; }
	if (x > 2) { r = r + 2; }
	if (x > 3) { r = r + 3; }
	if (x > 4) { r = r + 4; }
	if (x > 5) { r = r + 5; }
	if (x > 6) { r = r + 6; }
	if (x > 7) { r = r + 7; }
	return r;
}`
	gcc, _ := compile.ByName("gcc-4.9")
	p, err := compile.Compile(minic.MustParse(src), "many_blocks", gcc, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	count := func(pathLen, maxBlocks int) int {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 3}, PathLen: pathLen, PathMaxBlocks: maxBlocks})
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
		return db.TotalStrands()
	}
	base := count(0, 0)
	limited := count(2, 3) // block count exceeds the limit: no paths
	if limited != base {
		t.Errorf("block limit ignored: %d vs %d", limited, base)
	}
	unlimited := count(2, 100)
	if unlimited <= base {
		t.Errorf("paths added nothing under a generous limit: %d vs %d", unlimited, base)
	}
}

func TestPathStrandsDeterministic(t *testing.T) {
	gcc, _ := compile.ByName("gcc-4.9")
	p, err := compile.Compile(minic.MustParse(wrapperSrc), "tiny_wrap", gcc, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	mk := func() *DB {
		db := NewDB(Options{VCP: vcp.Config{MinVars: 5}, PathLen: 3})
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
		return db
	}
	a, b := mk(), mk()
	if a.TotalStrands() != b.TotalStrands() || a.NumUniqueStrands() != b.NumUniqueStrands() {
		t.Error("path decomposition not deterministic")
	}
}
