package core

import (
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	testcorpus "repro/internal/corpus"
	"repro/internal/smt"
)

// TestColdQueryScratchBounded guards the footprint of a cold query:
// evaluation scratch belongs to the workers that evaluate, so what a
// query allocates and what stays on the heap afterwards must not grow
// with the number of strands it touched. Twenty procedures of a held-out
// toolchain run cold against a two-toolchain corpus (each query's memos
// are released when it returns, so nothing but its cached rows may keep
// what it computed). So each cold query must allocate at most a few MiB,
// the heap beyond the memo gauge must stay within a few MiB of where it
// was after load, and no smt.Program field may reach a kernel or a pool
// of them.
func TestColdQueryScratchBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	build := func(toolchains ...string) []*asm.Proc {
		procs, err := testcorpus.Build(testcorpus.BuildConfig{Toolchains: testToolchains(t, toolchains...)})
		if err != nil {
			t.Fatal(err)
		}
		return procs
	}
	db := NewDB(Options{Workers: 2})
	fillDB(t, db, build("gcc-4.9", "clang-3.5"))
	queries := build("icc-15.0.1")
	if len(queries) > 20 {
		queries = queries[:20]
	}

	// No smt.Program may reach a kernel or a pool of them: that reference
	// is what made scratch O(corpus).
	pt := reflect.TypeOf(smt.Program{})
	for i := 0; i < pt.NumField(); i++ {
		if ft := pt.Field(i).Type.String(); strings.Contains(ft, "Kernel") || strings.Contains(ft, "sync.Pool") {
			t.Errorf("smt.Program.%s is a %s: programs must not own evaluation scratch", pt.Field(i).Name, ft)
		}
	}

	var ms runtime.MemStats
	heapLessMemo := func() int64 {
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc) - db.Stats().Memo.Held
	}
	loaded := heapLessMemo()
	allocBefore := ms.TotalAlloc
	for _, q := range queries {
		if _, err := db.Query(q); err != nil {
			t.Fatalf("query %s: %v", q.Name, err)
		}
	}
	runtime.ReadMemStats(&ms)
	perQuery := (ms.TotalAlloc - allocBefore) / uint64(len(queries))
	st := db.Stats()
	if st.MemoMisses == 0 {
		t.Fatal("queries were not cold: no memo misses")
	}
	left := heapLessMemo() - loaded
	t.Logf("%d cold queries: %d KiB allocated per query; heap beyond the memo moved by %d KiB (memo %d KiB, %d entries)",
		len(queries), perQuery>>10, left>>10, st.Memo.Held>>10, st.Memo.Entries)

	// What may stay is the package pool's few kernels, each grown to the
	// largest program its worker met (about 1 MiB here).
	const maxAllocPerQuery, maxLeft = 6 << 20, 6 << 20
	if perQuery > maxAllocPerQuery {
		t.Errorf("a cold query allocates %d KiB, bound %d KiB", perQuery>>10, maxAllocPerQuery>>10)
	}
	if left > maxLeft {
		t.Errorf("%d KiB beyond the memo stayed on the heap after the queries, bound %d KiB", left>>10, maxLeft>>10)
	}
}

// TestLoadedStrandBytesBounded guards what a loaded corpus keeps per
// strand. An indexed strand is only ever the matched side of a pair, so it
// holds its fingerprint set, role signatures and key, but no compiled
// program and no memo: those belong to query strands and die with their
// query. The diff corpus goes through Export and FromExport, everything
// but the loaded DB is dropped, and the heap it keeps after GC — strands,
// targets, sketches and all — is divided by its unique strands.
func TestLoadedStrandBytesBounded(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus build is slow")
	}
	// No field of an indexed strand may reach a program or a memo.
	seen := map[reflect.Type]bool{}
	var walk func(ty reflect.Type, path string)
	walk = func(ty reflect.Type, path string) {
		if seen[ty] {
			return
		}
		seen[ty] = true
		if n := ty.String(); n == "smt.Program" || n == "vcp.memo" {
			t.Errorf("%s reaches a %s", path, n)
		}
		switch ty.Kind() {
		case reflect.Pointer, reflect.Slice, reflect.Array:
			walk(ty.Elem(), path)
		case reflect.Map:
			walk(ty.Key(), path)
			walk(ty.Elem(), path)
		case reflect.Struct:
			for i := 0; i < ty.NumField(); i++ {
				walk(ty.Field(i).Type, path+"."+ty.Field(i).Name)
			}
		}
	}
	walk(reflect.TypeOf(corpus{}.uniq).Elem(), "corpus.uniq[i]")

	var ms runtime.MemStats
	heap := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties the kernel pool
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	before := heap()
	db := func() *DB {
		built := NewDB(Options{})
		fillDB(t, built, buildDiffCorpus(t))
		loaded, err := FromExport(built.Export())
		if err != nil {
			t.Fatal(err)
		}
		return loaded
	}()
	per := (heap() - before) / int64(db.NumUniqueStrands())
	t.Logf("%d unique strands loaded: %.1f KiB retained per strand", db.NumUniqueStrands(), float64(per)/1024)
	// With a compiled program kept per strand this read 7.8–8.3 KiB on
	// this corpus (1,196 strands), without it 4.4–4.9 KiB.
	const maxPerStrand = 6 << 10
	if per > maxPerStrand {
		t.Errorf("a loaded corpus keeps %.1f KiB per strand, bound %d KiB: is a compiled program reachable from an indexed strand?",
			float64(per)/1024, maxPerStrand>>10)
	}
	runtime.KeepAlive(db)
}
