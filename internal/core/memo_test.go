package core

import (
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/compile"
	testcorpus "repro/internal/corpus"
	"repro/internal/vcp"
)

// TestMemoAccounting drives the γ-fingerprint memo's ceiling through the
// engine: a DB whose pool is far below one query's memo refuses to
// remember assignments while that query runs, so it evaluates more of
// them, and must return reports bit-identical to a DB that never
// refuses; the gauge, sampled while the queries run, never reads above
// the ceiling; and when a query returns, nothing it charged is left on
// either account.
func TestMemoAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus queries are slow")
	}
	procs := buildDiffCorpus(t)
	roomy := NewDB(Options{})
	tight := NewDB(Options{})
	tight.memo = vcp.NewMemoPool(64 << 10) // before querying: prepare attaches to it
	fillDB(t, roomy, procs)
	fillDB(t, tight, procs)

	stop := make(chan struct{})
	var sampler sync.WaitGroup
	sampler.Add(1)
	go func() {
		defer sampler.Done()
		for {
			select {
			case <-stop:
				return
			case <-time.After(time.Millisecond): // pace the sampler: it shares two cores with the queries
			}
			if s := tight.Stats(); s.Memo.Held > s.Memo.Budget {
				t.Errorf("memo gauge %d over budget %d", s.Memo.Held, s.Memo.Budget)
				return
			}
		}
	}()

	qtc, _ := compile.ByName("clang-3.5")
	for _, v := range testcorpus.Vulns()[:2] {
		q, err := testcorpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := roomy.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		got, err := tight.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Results {
			w, g := want.Results[i], got.Results[i]
			if w.Target.Name != g.Target.Name ||
				math.Float64bits(w.GES) != math.Float64bits(g.GES) ||
				math.Float64bits(w.SLOG) != math.Float64bits(g.SLOG) {
				t.Fatalf("query %s result %d: refusing DB %+v != roomy DB %+v", v.Alias, i, g, w)
			}
		}
		for _, db := range []*DB{roomy, tight} {
			if m := db.Stats().Memo; m.Held != 0 || m.Entries != 0 {
				t.Errorf("after query %s: %d memo bytes and %d entries still charged", v.Alias, m.Held, m.Entries)
			}
		}
	}
	close(stop)
	sampler.Wait()

	rs, ts := roomy.Stats(), tight.Stats()
	if rs.VerifierCorrespondences != ts.VerifierCorrespondences {
		t.Errorf("γ counts diverge: roomy=%d tight=%d", rs.VerifierCorrespondences, ts.VerifierCorrespondences)
	}
	// The ceiling's refusals show as misses: the tight DB evaluates what
	// it could not remember.
	if rs.MemoHits == 0 || rs.MemoMisses >= ts.MemoMisses {
		t.Errorf("memo traffic: roomy %d hits, %d misses; tight %d misses (want more: refusals)",
			rs.MemoHits, rs.MemoMisses, ts.MemoMisses)
	}
	if rs.Memo.Budget != memoBudgetBytes {
		t.Errorf("roomy ceiling %d, want %d", rs.Memo.Budget, memoBudgetBytes)
	}
}

// TestMemoPoolHoldsOnlyInFlightQueries pins what the γ-memo ceiling pays for.
// A memo fills only on the query side of a pair, and the engine only ever
// puts an indexed strand on the matched side, so the pool holds the memos
// of queries in flight and nothing else: after each of a dozen distinct
// cold queries returns, no byte and no assignment is left charged.
func TestMemoPoolHoldsOnlyInFlightQueries(t *testing.T) {
	procs, err := testcorpus.Build(testcorpus.BuildConfig{Toolchains: testToolchains(t, "gcc-4.9", "clang-3.5")})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDB(Options{})
	var queries []*asm.Proc
	for _, p := range procs {
		if p.Source.Toolchain == "clang-3.5" {
			queries = append(queries, p)
		} else {
			fillDB(t, db, []*asm.Proc{p})
		}
	}
	// A query whose strands all match identically or fall outside the size
	// window fills no memo; count only the ones that did.
	filled := 0
	for _, q := range queries {
		if filled == 12 {
			break
		}
		misses := db.Stats().MemoMisses
		if _, err := db.Query(q); err != nil {
			t.Fatal(err)
		}
		if db.Stats().MemoMisses > misses {
			filled++
		}
		if m := db.memo.Stats(); m.Held != 0 || m.Entries != 0 {
			t.Errorf("after query %s: %d memo bytes and %d assignments still charged", q.Name, m.Held, m.Entries)
		}
	}
	if filled < 12 {
		t.Fatalf("only %d queries filled a memo, want 12", filled)
	}
}
