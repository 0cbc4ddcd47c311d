package vcp_test

// Guards for the γ-fingerprint memo. The memo changes where a
// correspondence's fingerprints come from, never which correspondences
// are enumerated, counted or scored — so whatever state the memo is in
// (cold, warm, full under a ceiling far too small, shared by concurrent
// evaluators), every score and γ count must equal the scalar
// reference interpreter's, which never touches it.

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/ivl"
	"repro/internal/strand"
	"repro/internal/vcp"
)

type memoRef struct {
	v     float64
	gamma int
}

// constantStrands are the two shapes whose reduced fingerprint vector is
// empty — no input at all, and inputs that no definition reads — so a
// memo entry of theirs is a key with nothing behind it. The corpus has
// none; a memo that told "found" by the slice re-evaluated them on every
// leaf forever.
func constantStrands() []*strand.Strand {
	iv := func(n string) ivl.Var { return ivl.Var{Name: n, Type: ivl.Int} }
	body := func(seed uint64) []ivl.Stmt {
		return []ivl.Stmt{
			ivl.Assign(iv("c1"), ivl.Bin(ivl.Mul, ivl.C(seed), ivl.C(9))),
			ivl.Assign(iv("c2"), ivl.Bin(ivl.Add, ivl.IntVar("c1"), ivl.C(1))),
			ivl.Assign(iv("c3"), ivl.Un(ivl.Not, ivl.IntVar("c2"))),
			ivl.Assign(iv("c4"), ivl.Bin(ivl.Xor, ivl.IntVar("c1"), ivl.IntVar("c3"))),
			ivl.Assign(iv("c5"), ivl.IntVar("c2")),
		}
	}
	return []*strand.Strand{
		{ProcName: "constant/no-inputs", Stmts: body(7)},
		{ProcName: "constant/unread-inputs", Stmts: body(11), Inputs: []ivl.Var{iv("x"), iv("y")}},
	}
}

// memoFixture prepares n corpus strands plus constantStrands twice — once
// for the scalar reference pass it runs here, once (fresh, memos empty,
// attached to pool when non-nil) for the caller.
func memoFixture(t *testing.T, n int, pool *vcp.MemoPool) ([]*vcp.Prepared, [][]memoRef) {
	t.Helper()
	strands := corpusStrands(t)
	if len(strands) > n {
		strands = strands[:n]
	}
	strands = append(strands, constantStrands()...)
	cfg := vcp.Config{}
	refPrep := make([]*vcp.Prepared, len(strands))
	prep := make([]*vcp.Prepared, len(strands))
	for i, s := range strands {
		refPrep[i], prep[i] = vcp.Prepare(s, cfg), vcp.Prepare(s, cfg)
		if err := prep[i].Err(); err != nil {
			t.Fatalf("prepare %d: %v", i, err)
		}
		if pool != nil {
			pool.Attach(prep[i])
		}
	}
	refs := make([][]memoRef, len(strands))
	for i := range refPrep {
		refs[i] = make([]memoRef, len(strands))
		ev := vcp.NewReferenceEvaluator(refPrep[i], cfg, 0)
		for j := range refPrep {
			v, st := ev.Compute(refPrep[j])
			refs[i][j] = memoRef{v, st.Correspondences}
		}
		ev.Close()
	}
	return prep, refs
}

func checkPair(t *testing.T, what string, i, j int, v float64, st vcp.Stats, want memoRef) {
	t.Helper()
	if math.Float64bits(v) != math.Float64bits(want.v) || st.Correspondences != want.gamma {
		t.Fatalf("%s pair (%d,%d): (%v, %d γ) != scalar reference (%v, %d γ)",
			what, i, j, v, st.Correspondences, want.v, want.gamma)
	}
	if st.MemoMisses+st.MemoHits < int64(st.Correspondences) {
		t.Fatalf("%s pair (%d,%d): %d hits + %d misses cannot cover %d counted γ",
			what, i, j, st.MemoHits, st.MemoMisses, st.Correspondences)
	}
}

// TestMemoDifferential runs every corpus strand pairing through the
// production evaluator with the memo cold, then warm, with no pool and
// under pool ceilings that admit about one entry and about one strand,
// and holds every pass to the scalar reference. The unbounded warm pass
// must not reach the kernel at all; a ceiling must refuse assignments,
// so its warm pass still does, and its gauge must never read above it.
func TestMemoDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus differential is slow")
	}
	cfg := vcp.Config{}
	for _, tc := range []struct {
		name   string
		budget int64 // 0: no pool
	}{{"unbounded", 0}, {"budget=256B", 256}, {"budget=16KiB", 16 << 10}} {
		t.Run(tc.name, func(t *testing.T) {
			var pool *vcp.MemoPool
			if tc.budget > 0 {
				pool = vcp.NewMemoPool(tc.budget)
			}
			prep, refs := memoFixture(t, 24, pool)
			for _, pass := range []string{"cold", "warm"} {
				var hits, batches int64
				for i := range prep {
					ev := vcp.NewEvaluator(prep[i], cfg)
					for j := range prep {
						v, st := ev.Compute(prep[j])
						checkPair(t, pass, i, j, v, st, refs[i][j])
						hits += st.MemoHits
						batches += st.Batches
						if pool != nil {
							if ps := pool.Stats(); ps.Held > ps.Budget {
								t.Fatalf("%s pair (%d,%d): memo gauge %d over budget %d", pass, i, j, ps.Held, ps.Budget)
							}
						}
					}
					ev.Close()
				}
				if pass == "warm" && (pool == nil) != (batches == 0) {
					t.Fatalf("warm pass under ceiling %d flushed %d kernel batches (%d memo hits)", tc.budget, batches, hits)
				}
				if pool == nil && pass == "warm" && hits == 0 {
					t.Fatal("warm pass found nothing in the memo")
				}
			}
			if pool == nil {
				return
			}
			// Releasing every strand must return the account to zero:
			// bytes reserved and handed back balanced exactly, entries
			// counted in and out.
			pool.Release(prep...)
			if ps := pool.Stats(); ps.Held != 0 || ps.Entries != 0 {
				t.Fatalf("%+v still charged after releasing every strand", ps)
			}
		})
	}
}

// TestMemoSharedPrepared has several goroutines, each with its own
// evaluators, hammer the same Prepared strands — the shape of core's
// stage 3, where chunks of one row share the query strand's memo and
// every query shares the target strands' — under a ceiling small enough
// that refusals race the lookups. CI runs it with -race -count=10.
func TestMemoSharedPrepared(t *testing.T) {
	pool := vcp.NewMemoPool(8 << 10)
	prep, refs := memoFixture(t, 10, pool)
	cfg := vcp.Config{}
	var wg sync.WaitGroup
	var lastRound atomic.Int64 // kernel batches of the final round: refusals
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			ev := vcp.NewEvaluator(prep[0], cfg)
			defer ev.Close()
			for round := 0; round < 3; round++ {
				for k := range prep {
					i := (k + w) % len(prep)
					ev.Reset(prep[i])
					for j := range prep {
						v, st := ev.Compute(prep[j])
						if round == 2 {
							lastRound.Add(st.Batches)
						}
						if math.Float64bits(v) != math.Float64bits(refs[i][j].v) || st.Correspondences != refs[i][j].gamma {
							t.Errorf("worker %d pair (%d,%d): (%v, %d γ) != scalar reference (%v, %d γ)",
								w, i, j, v, st.Correspondences, refs[i][j].v, refs[i][j].gamma)
							return
						}
					}
				}
			}
		}(w)
	}
	wg.Wait()
	if ps := pool.Stats(); ps.Held > ps.Budget {
		t.Fatalf("memo gauge %d over budget %d", ps.Held, ps.Budget)
	}
	if lastRound.Load() == 0 {
		t.Fatal("the third round found every assignment remembered: the ceiling refused nothing")
	}
}

// TestComputeWarmAllocs pins the evaluator-owned scratch: once a pair's
// correspondences are all in the memo, computing it again allocates
// nothing — no assignment or candidate slices, no closures, no kernel.
func TestComputeWarmAllocs(t *testing.T) {
	prep, _ := memoFixture(t, 8, nil)
	cfg := vcp.Config{}
	ev := vcp.NewEvaluator(prep[0], cfg)
	defer ev.Close()
	pairs := 0
	for i := range prep {
		for j := range prep {
			ev.Reset(prep[i])
			if _, st := ev.Compute(prep[j]); st.Correspondences == 0 {
				continue
			}
			pairs++
			allocs := testing.AllocsPerRun(10, func() {
				ev.Reset(prep[i])
				if _, st := ev.Compute(prep[j]); st.Batches != 0 {
					t.Fatalf("pair (%d,%d): warm Compute flushed %d kernel batches", i, j, st.Batches)
				}
			})
			if allocs != 0 {
				t.Fatalf("pair (%d,%d): warm Compute allocates %.0f times", i, j, allocs)
			}
		}
	}
	if pairs == 0 {
		t.Fatal("no pair with a correspondence")
	}
}
