package core

import (
	"context"
	"math"
	"runtime"
	"testing"
)

// bytesPerRun returns the heap bytes one call of f allocates: the least
// average over three batches of 50 calls, so that an allocation the
// runtime makes on its own account in one batch does not count.
func bytesPerRun(f func()) int64 {
	const runs = 50
	least := int64(math.MaxInt64)
	for batch := 0; batch < 3; batch++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		least = min(least, int64(after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return least
}

// TestWarmQueryBytesFlat is the warm path's byte contract: a query run from
// a kept plan over complete rows, its report released as eshd releases it,
// allocates the same bytes on a corpus of 50 targets and on one of 250.
// Every slab with an entry per target — the partial's scores and max-VCPs,
// Finalize's scorers, scores and rank entries, the report's results — comes
// from a pool, so what is left grows with the query, never with the corpus.
func TestWarmQueryBytesFlat(t *testing.T) {
	q := parse(t, threeChains)
	perQuery := func(n int) int64 {
		srcs := []string{iccStyle, unrelated}
		for i := 0; len(srcs) < n; i++ {
			srcs = append(srcs, genProc(i))
		}
		db := buildFresh(t, writeTestOptions(), srcs)
		pl, err := db.Plan(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		run := func() {
			rep, err := db.RunPlan(context.Background(), pl)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Results) != n {
				t.Fatalf("%d results from %d targets", len(rep.Results), n)
			}
			rep.Release()
		}
		run() // fills the rows
		run() // reads them complete, and primes the pools at this size
		return bytesPerRun(run)
	}
	small, large := perQuery(50), perQuery(250)
	t.Logf("a warm query allocates %d B at 50 targets, %d B at 250", small, large)
	// A slice header or two of slack; the old per-query slabs cost about
	// 130 B per target here.
	const slack = 64
	if d := large - small; d > slack || d < -slack {
		t.Errorf("a warm query allocates %d B at 50 targets and %d B at 250: %d B more for 200 more targets, want at most %d",
			small, large, d, slack)
	}
}

// TestSlabPoolKeepsPeak: a pool keeps every slab handed back however many
// were out at once (here 256, as many as 128 admitted queries of two slabs
// each hold), so the same burst runs again without allocating a slab; and
// it never keeps more than were out together.
func TestSlabPoolKeepsPeak(t *testing.T) {
	const peak = 256
	var sp SlabPool[TargetScore]
	out := make([][]TargetScore, peak)
	burst := func(k int) {
		for i := range out[:k] {
			out[i] = sp.Get(100)
		}
		for _, s := range out[:k] {
			sp.Put(s)
		}
	}
	burst(peak)
	if n := len(sp.free); n != peak {
		t.Fatalf("%d slabs pooled after %d were out at once", n, peak)
	}
	if a := testing.AllocsPerRun(10, func() { burst(peak) }); a != 0 {
		t.Errorf("a repeated burst of %d slabs allocates %v times, want 0", peak, a)
	}
	burst(peak / 2)
	if n := len(sp.free); n != peak {
		t.Errorf("%d slabs pooled after bursts of at most %d, want %d", n, peak, peak)
	}
}
