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
		len(queries), perQuery>>10, left>>10, st.Memo.Held>>10, st.MemoAssignments)

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
