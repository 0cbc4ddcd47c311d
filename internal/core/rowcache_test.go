package core

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/asm"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// threeChains is a query of three independent dependence chains — three
// strands, each shaped like genProc's so it meets verifiers.
const threeChains = `proc three_chains
	mov rax, rdi
	imul rax, 5
	add rax, 0x18
	mov rcx, rax
	shr rcx, 2
	xor rax, rcx
	mov rbx, rsi
	imul rbx, 7
	add rbx, 0x1f
	mov r8, rbx
	shr r8, 3
	xor rbx, r8
	mov r9, rdx
	imul r9, 9
	add r9, 0x26
	mov r10, r9
	shr r10, 4
	xor r9, r10
	ret
endp`

// vcpSpanAttrs runs one traced query and returns the vcp stage's span
// attributes.
func vcpSpanAttrs(t *testing.T, db *DB, q *asm.Proc) (*Report, map[string]float64) {
	t.Helper()
	ctx, root := telemetry.StartSpan(context.Background(), "query")
	rep, err := db.QueryCtx(ctx, q)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	return rep, root.Snapshot().Find("vcp").Attrs
}

// TestWarmQueryDoesNoColdWork is the warm path's contract: a query whose
// pairs are all cached prepares no strand, builds no evaluator (so it can
// acquire no kernel), starts no stage-3 goroutine and allocates a bounded
// handful of objects per query strand; a query that lacks exactly one pair
// prepares exactly the one strand that pair belongs to.
func TestWarmQueryDoesNoColdWork(t *testing.T) {
	for _, mode := range writeModes {
		t.Run(mode, func(t *testing.T) {
			db := buildFresh(t, writeTestOptions(), append([]string{iccStyle, unrelated}, genProc(1), genProc(2), genProc(3)))
			if mode == "lsh" {
				checkSketchState(t, "as built", db)
			}
			evals := 0
			db.newEval = func(p *vcp.Prepared, cfg vcp.Config) *vcp.Evaluator {
				evals++ // cold queries below run one at a time, on one worker or under wg.Wait
				return vcp.NewEvaluator(p, cfg)
			}
			db.opts.Workers = 1
			q := parse(t, threeChains)
			cold, coldAttrs := vcpSpanAttrs(t, db, q)
			nq := len(dedupStrands(t, db, q))
			// One worker — the caller — and its one evaluator, however
			// many rows and chunks the queue held.
			if evals != 1 || coldAttrs["workers"] != 1 || db.Stats().QueryPrepares == 0 {
				t.Fatalf("the cold query did no cold work: %d evaluators, attrs %v", evals, coldAttrs)
			}

			evals = 0
			before := db.Stats()
			warm, attrs := vcpSpanAttrs(t, db, q)
			diffReports(t, "warm vs cold", warm, cold)
			after := db.Stats()
			if after.QueryPrepares != before.QueryPrepares || evals != 0 || attrs["workers"] != 0 ||
				after.VerifierCalls != before.VerifierCalls || after.Memo.Held != before.Memo.Held {
				t.Errorf("warm query: %d prepares, %d evaluators, %v workers, %d verifier calls",
					after.QueryPrepares-before.QueryPrepares, evals, attrs["workers"], after.VerifierCalls-before.VerifierCalls)
			}
			if attrs["rows_complete"] != float64(nq) || attrs["cache_misses"] != 0 ||
				attrs["cache_hits"] != coldAttrs["cache_hits"]+coldAttrs["cache_misses"] ||
				attrs["pairs"] != coldAttrs["pairs"] || attrs["pairs_pruned"] != coldAttrs["pairs_pruned"] ||
				attrs["pairs_identical"] != coldAttrs["pairs_identical"] || attrs["lsh_skipped"] != coldAttrs["lsh_skipped"] {
				t.Errorf("warm vcp span %v does not account for the pairs of the cold one %v", attrs, coldAttrs)
			}

			// Stage 3 on cached rows allocates its own bookkeeping — the
			// row states, the two slices of row headers, the pooled mark
			// slice's header — and nothing per strand or per pair (the
			// old path copied a map entry for each cached pair).
			kept, _, err := decompose(q, db.opts)
			if err != nil {
				t.Fatal(err)
			}
			_, sp := telemetry.StartSpan(context.Background(), "vcp")
			if allocs := testing.AllocsPerRun(50, func() {
				qc := db.corpus.Load()
				if _, _, err := db.vcpRows(kept, sp, qc); err != nil {
					t.Fatal(err)
				}
			}); allocs > 6 {
				t.Errorf("stage 3 over %d cached rows allocates %.0f objects, want at most 6", len(kept), allocs)
			}

			// The other half of a warm query is its plan: run again from a
			// kept one, nothing is decomposed (the stage histogram counts
			// the decompositions that ran), the trace still names four
			// stages, and the whole engine call — stages 3–4, Finalize,
			// the ranking — allocates a few dozen objects, none per pair or per target.
			pl, err := db.Plan(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			decomposed := db.stageHist["decompose"].Count()
			ctx, root := telemetry.StartSpan(context.Background(), "query")
			db.TracePlanReuse(ctx)
			kept2, err := db.RunPlan(ctx, pl)
			root.End()
			if err != nil {
				t.Fatal(err)
			}
			diffReports(t, "kept plan vs cold", kept2, cold)
			tr := root.Snapshot()
			if len(tr.Children) != len(queryStages) || tr.Children[0].Attrs["plan_memo_hit"] != 1 || tr.Children[1].Attrs["plan_memo_hit"] != 1 {
				t.Errorf("a query from a kept plan traces %d stages, the first two %v and %v", len(tr.Children), tr.Children[0].Attrs, tr.Children[1].Attrs)
			}
			if allocs := testing.AllocsPerRun(50, func() {
				db.TracePlanReuse(context.Background())
				if _, err := db.RunPlan(context.Background(), pl); err != nil {
					t.Fatal(err)
				}
			}); allocs > 48 {
				t.Errorf("a warm query from a kept plan allocates %.0f objects, want at most 48", allocs)
			}
			if n := db.stageHist["decompose"].Count(); n != decomposed {
				t.Errorf("queries from a kept plan decomposed %d times", n-decomposed)
			}

			// Forget exactly one verified pair of one strand.
			db.mu.Lock()
			var key string
			db.rows.Each(func(k string, r *vcpRow) {
				if r.tally[kindVerified] > 0 && (key == "" || k < key) {
					key = k
				}
			})
			if key == "" {
				t.Fatal("no cached row holds a verified pair")
			}
			old, _ := db.rows.Get(key)
			j := -1
			for c := range old.vals {
				if old.has(c) && old.kind(c) == kindVerified {
					j = c
					break
				}
			}
			holed := holedRow(old, func(c int) bool { return c == j })
			db.rows.Put(key, holed, int64(len(holed.vals)))
			db.mu.Unlock()

			evals = 0
			before = db.Stats()
			again, attrs := vcpSpanAttrs(t, db, q)
			diffReports(t, "one pair forgotten", again, cold)
			after = db.Stats()
			if got := after.QueryPrepares - before.QueryPrepares; got != 1 {
				t.Errorf("one unknown pair prepared %d strands, want 1", got)
			}
			if attrs["cache_misses"] != 1 || attrs["rows_complete"] != float64(nq-1) || attrs["workers"] != 1 || evals != 1 {
				t.Errorf("one unknown pair: attrs %v, %d evaluators", attrs, evals)
			}

			// Forget every verified pair of every strand: several chunks,
			// but far fewer than minFanOut pairs, so the caller drains them
			// alone whatever Workers allows.
			db.mu.Lock()
			forgotten := 0
			db.rows.Each(func(k string, r *vcpRow) {
				holed := holedRow(r, func(c int) bool { return r.kind(c) == kindVerified })
				forgotten += r.resolved() - holed.resolved()
				db.rows.Put(k, holed, int64(len(holed.vals)))
			})
			db.mu.Unlock()
			if forgotten < 2 || forgotten >= minFanOut {
				t.Fatalf("test premise broken: %d verified pairs cached, want 2..%d", forgotten, minFanOut-1)
			}
			db.opts.Workers = 4
			evals = 0
			again, attrs = vcpSpanAttrs(t, db, q)
			diffReports(t, "every verified pair forgotten", again, cold)
			if attrs["cache_misses"] != float64(forgotten) || attrs["workers"] != 1 || evals != 1 {
				t.Errorf("%d unknown pairs with 4 workers allowed: attrs %v, %d evaluators", forgotten, attrs, evals)
			}
			// Queries and the cache's surgery leave the LSH state as built.
			if mode == "lsh" {
				checkSketchState(t, "after the queries", db)
			}
		})
	}
}

// holedRow copies r without the known columns drop selects.
func holedRow(r *vcpRow, drop func(c int) bool) *vcpRow {
	holed := newVCPRow(len(r.vals))
	for c := range r.vals {
		if r.has(c) && !drop(c) {
			holed.vals[c] = r.vals[c]
			holed.set(c, r.kind(c))
		}
	}
	return holed
}

// TestSharedRowReadOnly has four readers query the same procedures while
// a writer adds, deletes and compacts under them. Published rows are
// shared between the readers, and so are the H0 histograms kept with them
// and handed out as QueryPartial.H0; the race detector is the assertion
// that nobody — the successor builder, the remap, a later query — ever
// writes one. Each reader also keeps what it read and checks at the end
// that it still reads the same.
func TestSharedRowReadOnly(t *testing.T) {
	t.Run("scan", func(t *testing.T) {
		db := newWriteDB()
		applyScript(t, db, append(synthOps(1, 2, 3), addOp(iccStyle)), false)
		queries := []*asm.Proc{parse(t, gccStyle), parse(t, genProc(2))}

		done := make(chan struct{})
		var served atomic.Int64 // queries answered, all readers
		var readers sync.WaitGroup
		for r := 0; r < 4; r++ {
			readers.Add(1)
			go func() {
				defer readers.Done()
				type held struct {
					row, copy []float64
					h0        *stats.H0Accumulator
					h0copy    []byte
				}
				var kept []held
				for i := 0; ; i++ {
					select {
					case <-done:
						for _, h := range kept {
							if !slices.EqualFunc(h.row, h.copy, func(a, b float64) bool {
								return math.Float64bits(a) == math.Float64bits(b)
							}) {
								t.Error("a row a query read changed afterwards")
							}
							if b, _ := json.Marshal(h.h0); !bytes.Equal(b, h.h0copy) {
								t.Error("an H0 histogram handed to a query changed afterwards")
							}
						}
						return
					default:
					}
					q := queries[i%len(queries)]
					pl, err := db.Plan(context.Background(), q)
					if err != nil {
						t.Error(err)
						return
					}
					a, err := answerPlan(db, i, pl) // finalized: reads every histogram
					if err != nil {
						t.Error(err)
						return
					}
					for k, row := range a.rows {
						b, _ := json.Marshal(a.qp.H0[k])
						kept = append(kept, held{row, slices.Clone(row), a.qp.H0[k], b})
					}
					served.Add(1)
				}
			}()
		}
		// Every write step is followed by queries that meet its rows.
		step := func(ops ...wop) {
			applyScript(t, db, ops, false)
			for until := served.Load() + 8; served.Load() < until && !t.Failed(); {
				runtime.Gosched()
			}
		}
		for i := 10; i < 22; i++ {
			step(addOp(genProc(i)))
			if i%2 == 1 {
				step(delOp(fmt.Sprintf("synth_%d", i)))
			}
			if i%4 == 3 {
				step(delOp(fmt.Sprintf("synth_%d", i-1)), compactOp())
			}
		}
		close(done)
		readers.Wait()
	})
}
