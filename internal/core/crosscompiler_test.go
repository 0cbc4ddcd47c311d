package core

import (
	"fmt"
	"testing"

	"repro/internal/compile"
	"repro/internal/minic"
)

// Realistically sized source procedures (the paper's queries average
// dozens of statements). Querying one compilation of hash_stream must
// rank its six other compilations above unrelated procedures.
const srcA = `
func hash_stream(buf, len, seed) {
	var acc = seed ^ 0x9E3779B97F4A7C15;
	var i = 0;
	while (i + 8 <= len) {
		var w = load64(buf + i);
		w = w * 0xC2B2AE3D27D4EB4F;
		w = (w << 31) | (w >>u 33);
		acc = acc ^ w;
		acc = acc * 0x9E3779B97F4A7C15 + 0x165667B19E3779F9;
		i = i + 8;
	}
	var tail = 0;
	while (i < len) {
		tail = (tail << 8) | load8(buf + i);
		i = i + 1;
	}
	acc = acc ^ tail;
	acc = acc ^ (acc >>u 29);
	acc = acc * 0xBF58476D1CE4E5B9;
	acc = acc ^ (acc >>u 32);
	store64(buf + len, acc);
	return acc;
}`

const srcB = `
func parse_fields(buf, len, maxf) {
	var count = 0;
	var i = 0;
	var start = 0;
	var sum = 0;
	while (i < len) {
		var c = load8(buf + i);
		if (c == 0x2C) {
			var flen = i - start;
			if (flen > 0 && count < maxf) {
				sum = sum + flen * flen;
				count = count + 1;
			}
			start = i + 1;
		} else {
			if (c == 0) {
				break;
			}
		}
		i = i + 1;
	}
	if (i > start && count < maxf) {
		count = count + 1;
		sum = sum + (i - start);
	}
	return count * 0x10000 + (sum & 0xFFFF);
}`

const srcC = `
func table_lookup(tbl, keys, nkeys, mask) {
	var i = 0;
	var hits = 0;
	var acc = 0;
	while (i < nkeys) {
		var k = load32(keys + i * 4);
		var h = (k * 0x85EBCA6B) & mask;
		var slot = load64(tbl + h * 8);
		if (slot == k) {
			hits = hits + 1;
			acc = acc + slot;
		} else {
			var h2 = (h + 1) & mask;
			var probe = load64(tbl + h2 * 8);
			if (probe == k) {
				hits = hits + 1;
				acc = acc ^ probe;
			}
		}
		i = i + 1;
	}
	return hits * 0x100000 + (acc & 0xFFFFF);
}`

func buildCrossDB(t *testing.T) *DB {
	t.Helper()
	sources := map[string]string{"hash_stream": srcA, "parse_fields": srcB, "table_lookup": srcC}
	db := NewDB(Options{})
	for name, src := range sources {
		prog := minic.MustParse(src)
		for _, tc := range compile.Toolchains() {
			p, err := compile.Compile(prog, name, tc, compile.O2())
			if err != nil {
				t.Fatal(err)
			}
			p.Name = name + "@" + tc.Name()
			p.Source.SourceSym = name
			p.Source.Toolchain = tc.Name()
			if err := db.AddTarget(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	return db
}

func TestCrossCompilerRanking(t *testing.T) {
	if testing.Short() {
		t.Skip("cross-compiler ranking is slow")
	}
	db := buildCrossDB(t)
	gcc, _ := compile.ByName("gcc-4.9")
	q, err := compile.Compile(minic.MustParse(srcA), "hash_stream", gcc, compile.O2())
	if err != nil {
		t.Fatal(err)
	}
	q.Source.SourceSym = "hash_stream"
	rep, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	dump := ""
	for _, r := range rep.Results {
		dump += fmt.Sprintf("\n  %-28s GES=%8.3f S-LOG=%8.3f", r.Target.Name, r.GES, r.SLOG)
	}
	t.Logf("ranking:%s", dump)

	// At this deliberately small corpus size (21 targets) the H0
	// estimate cannot fully damp compiler-idiom strands — the phenomenon
	// §6.2 of the paper analyzes — so we require at least 6 of the 7
	// compilations in the top 9 and a clean top-5. The full-scale
	// behaviour is validated by the experiments package on corpora of
	// hundreds of procedures.
	tp := 0
	for _, r := range rep.Results[:9] {
		if r.Target.Source.SourceSym == "hash_stream" {
			tp++
		}
	}
	if tp < 6 {
		t.Errorf("only %d/7 true positives in Esh top 9%s", tp, dump)
	}
	for _, r := range rep.Results[:5] {
		if r.Target.Source.SourceSym != "hash_stream" {
			t.Errorf("top-5 contains %s", r.Target.Name)
		}
	}
}
