package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/sketch"
	"repro/internal/vcp"
)

// The live write path is an optimisation over rebuilding the index, not
// a new indexing method: after any interleaving of adds, tombstones,
// and compactions, queries must be bit-identical — same ranking, same
// Float64bits — to a from-scratch index of the surviving targets in
// their original add order. This file is that differential harness;
// replay_test.go is the crash-recovery bridge: a WAL truncated or garbled
// at an arbitrary byte recovers a prefix, and the replayed index is again
// bit-identical to a fresh build from the surviving writes.

// genProc emits a small single-block procedure whose strand content
// varies with i, so the pool has many distinct strands with occasional
// structural overlap (the shift/xor tail).
func genProc(i int) string {
	return fmt.Sprintf(`proc synth_%d
	mov rax, rdi
	imul rax, %d
	add rax, 0x%x
	mov rcx, rax
	shr rcx, %d
	xor rax, rcx
	add rax, rsi
	ret
endp`, i, 3+2*i, 0x11+i*7, 1+(i%7))
}

// wop is one step of a write script.
type wop struct {
	kind string // "add", "del", "compact"
	src  string // add: asm source
	name string // del: target name
}

func addOp(src string) wop  { return wop{kind: "add", src: src} }
func delOp(name string) wop { return wop{kind: "del", name: name} }
func compactOp() wop        { return wop{kind: "compact"} }
func synthOps(is ...int) []wop {
	var ops []wop
	for _, i := range is {
		ops = append(ops, addOp(genProc(i)))
	}
	return ops
}

// applyScript drives ops through the live write path. Duplicate adds
// and misses are allowed when lax (the randomized script generator does
// not track liveness precisely).
func applyScript(t *testing.T, db *DB, ops []wop, lax bool) {
	t.Helper()
	for i, op := range ops {
		switch op.kind {
		case "add":
			err := db.ApplyAdd(parse(t, op.src))
			if err != nil && !(lax && errors.Is(err, ErrDuplicateTarget)) {
				t.Fatalf("op %d: add: %v", i, err)
			}
		case "del":
			_, err := db.ApplyRemove(op.name)
			if err != nil && !(lax && errors.Is(err, ErrTargetNotFound)) {
				t.Fatalf("op %d: del %s: %v", i, op.name, err)
			}
		case "compact":
			if _, _, err := db.Compact(nil, nil); err != nil {
				t.Fatalf("op %d: compact: %v", i, err)
			}
		}
	}
}

// survivors replays the script against a reference model and returns
// the sources of the targets a from-scratch rebuild would index, in
// original add order (the order the live path's H0 normalisation and
// compaction both preserve).
func survivors(t *testing.T, ops []wop) []string {
	t.Helper()
	type entry struct {
		name, src string
		live      bool
	}
	var m []entry
	for _, op := range ops {
		switch op.kind {
		case "add":
			name := parse(t, op.src).Name
			dup := false
			for _, e := range m {
				if e.live && e.name == name {
					dup = true
				}
			}
			if !dup {
				m = append(m, entry{name, op.src, true})
			}
		case "del":
			for i := range m {
				if m[i].name == op.name {
					m[i].live = false
				}
			}
		}
	}
	var out []string
	for _, e := range m {
		if e.live {
			out = append(out, e.src)
		}
	}
	return out
}

func buildFresh(t *testing.T, opts Options, srcs []string) *DB {
	t.Helper()
	db := NewDB(opts)
	for _, src := range srcs {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// diffReports fails unless the two reports are bit-identical: same
// targets in the same order, and every score's Float64bits equal.
func diffReports(t *testing.T, label string, got, want *Report) {
	t.Helper()
	if len(got.Results) != len(want.Results) {
		t.Fatalf("%s: %d results, fresh rebuild has %d", label, len(got.Results), len(want.Results))
	}
	for i := range got.Results {
		g, w := got.Results[i], want.Results[i]
		if g.Target.Name != w.Target.Name {
			t.Fatalf("%s: rank %d is %s, fresh rebuild ranks %s", label, i, g.Target.Name, w.Target.Name)
		}
		for _, sc := range []struct {
			field string
			g, w  float64
		}{{"GES", g.GES, w.GES}, {"SLOG", g.SLOG, w.SLOG}} {
			if math.Float64bits(sc.g) != math.Float64bits(sc.w) {
				t.Fatalf("%s: rank %d (%s) %s = %x, fresh rebuild %x",
					label, i, g.Target.Name, sc.field, math.Float64bits(sc.g), math.Float64bits(sc.w))
			}
		}
	}
}

func writeTestOptions(mode string) Options {
	opts := Options{VCP: vcp.Config{MinVars: 3}}
	if mode == "lsh" {
		// The heuristic tier over a scan: the one loop that reads the
		// banded sketch index.
		opts.LSHMinContainment = sketch.SuggestedMinContainment
	}
	return opts
}

// newWriteDB returns an empty database under writeTestOptions(mode).
func newWriteDB(mode string) *DB { return NewDB(writeTestOptions(mode)) }

// TestWriteDifferential checks, after every step of every script, that
// the live corpus answers like a from-scratch rebuild of the survivors —
// and asks each question twice, so the second answer comes from the row
// cache the steps before have been filling. Cached rows are indexed by
// strand number, so each kind of step is a hazard of its own: an add
// appends columns (the row is extended, only the tail walked), a delete
// leaves known columns dead and a re-add revives columns a row may have
// skipped while they were dead (they must be verified, not read as 0), a
// delete of the newest target leaves a row shorter than the corpus with
// nothing owed, and a compaction after a delete renumbers everything (the
// remapped row must equal a recomputed one).
func TestWriteDifferential(t *testing.T) {
	scripts := []struct {
		name string
		ops  []wop
		// quiet lists the steps after which no query is issued, so the
		// next step meets the rows the step before left.
		quiet []int
	}{
		{"adds-only", synthOps(1, 2, 3, 4), nil},
		{"add-del", append(synthOps(1, 2, 3), delOp("synth_2")), nil},
		// The rows are two targets wide when a third comes and goes: too
		// short for the corpus, with nothing owed.
		{"add-del-newest", append(append(synthOps(1, 2, 3), delOp("synth_3")), synthOps(4)...), []int{2}},
		{"del-then-add-back", append(append(synthOps(1, 2, 3), delOp("synth_2")), addOp(genProc(2))), nil},
		// The rows are first built while synth_2's strands are dead.
		{"del-then-add-back-unseen", append(append(synthOps(1, 2, 3), delOp("synth_2")), addOp(genProc(2))), []int{0, 1, 2}},
		{"del-first-target", append(synthOps(1, 2, 3), delOp("synth_1")), nil},
		{"del-all-then-add", append(append(synthOps(1, 2), delOp("synth_1"), delOp("synth_2")), synthOps(3, 4)...), nil},
		{"compact-mid-stream", append(append(synthOps(1, 2, 3), delOp("synth_1"), compactOp()), synthOps(5, 6)...), nil},
		// The rows meet the compaction with columns known while live and
		// dead by now.
		{"compact-after-unseen-del", append(append(synthOps(1, 2, 3), delOp("synth_2"), compactOp()), synthOps(2)...), []int{3}},
		{"compact-twice", append(append(append(synthOps(1, 2), compactOp(), delOp("synth_2")), synthOps(3)...), compactOp(), delOp("synth_1")), nil},
		{"multiblock-mix", append([]wop{addOp(iccStyle), addOp(unrelated)}, append(synthOps(7, 8), delOp("strlen_like"), compactOp(), addOp(unrelated))...), nil},
		{"shared-strands", []wop{addOp(iccStyle), addOp(renameProc(iccStyle, "checksum_icc", "checksum_copy")), delOp("checksum_icc"), addOp(unrelated)}, nil},
	}
	queries := []string{gccStyle, genProc(3), genProc(2), unrelated}

	for _, mode := range []string{"scan", "lsh"} {
		for _, sc := range scripts {
			t.Run(mode+"/"+sc.name, func(t *testing.T) {
				opts := writeTestOptions(mode)
				live := newWriteDB(mode)
				// Planned against the empty corpus and run after every
				// step: nothing in a plan depends on the corpus, so a
				// server may keep one for as long as it likes.
				plans := make([]*QueryPlan, len(queries))
				for qi, qsrc := range queries {
					var err error
					if plans[qi], err = live.Plan(context.Background(), parse(t, qsrc)); err != nil {
						t.Fatal(err)
					}
				}
				for step := range sc.ops {
					prefix := sc.ops[:step+1]
					applyScript(t, live, prefix[step:], false)
					if slices.Contains(sc.quiet, step) {
						continue
					}
					fresh := buildFresh(t, opts, survivors(t, prefix))
					if live.NumTargets()-live.Tombstones() != fresh.NumTargets() {
						t.Fatalf("step %d: live corpus has %d live targets, fresh rebuild %d",
							step, live.NumTargets()-live.Tombstones(), fresh.NumTargets())
					}
					// The same steps with no query in between: what the
					// write path answers from an empty row cache.
					unqueried := newWriteDB(mode)
					applyScript(t, unqueried, prefix, false)
					for qi, qsrc := range queries {
						q := parse(t, qsrc)
						walkedBefore := pairCounts(fresh)
						want, err := fresh.Query(q)
						if err != nil {
							t.Fatalf("step %d query %d (fresh): %v", step, qi, err)
						}
						walked := pairCounts(fresh).sub(walkedBefore)
						for _, pass := range []string{"first", "cached"} {
							before, creditedBefore := live.Stats(), pairCounts(live)
							got, err := live.Query(q)
							if err != nil {
								t.Fatalf("step %d query %d (%s): %v", step, qi, pass, err)
							}
							diffReports(t, fmt.Sprintf("step %d query %d (%s)", step, qi, pass), got, want)
							after := live.Stats()
							if pass == "cached" && (after.QueryPrepares != before.QueryPrepares || after.VerifierCalls != before.VerifierCalls) {
								t.Fatalf("step %d query %d: the repeat prepared %d strands and made %d verifier calls",
									step, qi, after.QueryPrepares-before.QueryPrepares, after.VerifierCalls-before.VerifierCalls)
							}
							// Without tombstones the per-pair counters read what
							// a walk of every pair reads, although nothing was
							// walked: the rows' tallies vouch for the pairs.
							if credited := pairCounts(live).sub(creditedBefore); pass == "cached" && live.Tombstones() == 0 && credited != walked {
								t.Fatalf("step %d query %d: the repeat counted %+v, a walk counts %+v", step, qi, credited, walked)
							}
							if pass == "cached" && int(after.VCPRowsComplete-before.VCPRowsComplete) != len(dedupStrands(t, live, q)) {
								t.Fatalf("step %d query %d: the repeat found %d complete rows for %d query strands",
									step, qi, after.VCPRowsComplete-before.VCPRowsComplete, len(dedupStrands(t, live, q)))
							}
						}
						// The third answer is the one a serving daemon gives:
						// from the kept plan, over rows that now carry their
						// H0 estimate (the "cached" pass left it with them).
						planned, err := live.RunPlan(context.Background(), plans[qi])
						if err != nil {
							t.Fatalf("step %d query %d (kept plan): %v", step, qi, err)
						}
						diffReports(t, fmt.Sprintf("step %d query %d (kept plan)", step, qi), planned, want)
						// Rows are handed to callers: they must not depend
						// on what the cache knew — a dead column reads 0.
						warm, err := live.PartialQueryCtx(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						cold, err := unqueried.PartialQueryCtx(context.Background(), q)
						if err != nil {
							t.Fatal(err)
						}
						diffRows(t, fmt.Sprintf("step %d query %d", step, qi), warm.Rows, cold.Rows)
					}
				}
			})
		}
	}
}

// pairCount is the per-pair telemetry a query moves: how each pair was
// resolved. resolved is hits plus misses — a cold walk verifies what a
// cached row remembers.
type pairCount struct{ identical, skipped, pruned, resolved uint64 }

func pairCounts(db *DB) pairCount {
	return pairCount{
		identical: db.mPairsIdent.Value(),
		skipped:   db.mLSHSkipped.Value(),
		pruned:    db.mPairsPruned.Value(),
		resolved:  db.mCacheHits.Value() + db.mCacheMisses.Value(),
	}
}

func (a pairCount) sub(b pairCount) pairCount {
	return pairCount{a.identical - b.identical, a.skipped - b.skipped, a.pruned - b.pruned, a.resolved - b.resolved}
}

// dedupStrands returns the query's unique strands, as stage 2 sees them.
func dedupStrands(t *testing.T, db *DB, q *asm.Proc) map[string]bool {
	t.Helper()
	kept, _, err := decompose(q, db.opts)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, s := range kept {
		keys[s.CanonicalKey()] = true
	}
	return keys
}

// diffRows fails unless two sets of VCP rows are bit-identical.
func diffRows(t *testing.T, label string, got, want [][]float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d rows, want %d", label, len(got), len(want))
	}
	for i := range got {
		if len(got[i]) != len(want[i]) {
			t.Fatalf("%s: row %d is %d wide, want %d", label, i, len(got[i]), len(want[i]))
		}
		for j := range got[i] {
			if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
				t.Fatalf("%s: row %d column %d = %v, want %v", label, i, j, got[i][j], want[i][j])
			}
		}
	}
}

// TestWriteDifferentialStaleEpoch is the renumbering hazard seen from a
// query already in flight: it took its corpus snapshot before a
// compaction renumbered the strands and finishes after it. Its answer
// must be the one its snapshot implies, its rows — indexed by the old
// numbers — must not reach the remapped cache, and later queries must
// still answer like a rebuild, from that cache.
func TestWriteDifferentialStaleEpoch(t *testing.T) {
	ops := append(synthOps(1, 2, 3, 4), delOp("synth_1"))
	warmups := []string{genProc(3), gccStyle}
	for _, mode := range []string{"scan", "lsh"} {
		// "lookup-after": the compaction lands between the snapshot and
		// the cache lookup, so the query sees another epoch's cache and
		// works from scratch. "publish-after": it lands while the query is
		// verifying, after a lookup that found the old epoch's rows.
		for _, when := range []string{"lookup-after", "publish-after"} {
			t.Run(mode+"/"+when, func(t *testing.T) {
				opts := writeTestOptions(mode)
				live := newWriteDB(mode)
				// genProc(2) is not cached: the in-flight query has pairs
				// to verify and rows to publish. Its plan is older than
				// every target.
				pl, err := live.Plan(context.Background(), parse(t, genProc(2)))
				if err != nil {
					t.Fatal(err)
				}
				applyScript(t, live, ops, false)
				fresh := buildFresh(t, opts, survivors(t, ops))
				for _, src := range warmups {
					if _, err := live.Query(parse(t, src)); err != nil {
						t.Fatal(err)
					}
				}
				compact := func() {
					if _, _, err := live.Compact(nil, nil); err != nil {
						t.Error(err)
					}
				}
				q := parse(t, genProc(2))
				qc := live.corpus.Load()
				if when == "lookup-after" {
					compact()
				} else {
					var once sync.Once
					live.newEval = func(p *vcp.Prepared, cfg vcp.Config) *vcp.Evaluator {
						once.Do(compact)
						return vcp.NewEvaluator(p, cfg)
					}
				}
				qp, _, err := live.partialQuery(context.Background(), pl, qc)
				if err != nil {
					t.Fatal(err)
				}
				if live.DataGeneration() != 1 {
					t.Fatalf("the compaction did not land mid-query (generation %d)", live.DataGeneration())
				}
				want, err := fresh.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				diffReports(t, "in-flight query", qp.finalize(qc, nil), want)
				live.mu.Lock()
				for key := range dedupStrands(t, live, q) {
					if _, cached := live.rows.Get(key); cached {
						t.Errorf("a row indexed by the old numbering reached the remapped cache")
					}
				}
				live.mu.Unlock()

				// The remapped rows answer the warm-up queries without a
				// verifier, and everything still equals the rebuild.
				for _, src := range append(warmups, genProc(2)) {
					p := parse(t, src)
					before := live.Stats()
					got, err := live.Query(p)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Query(p)
					if err != nil {
						t.Fatal(err)
					}
					diffReports(t, "after compaction: "+p.Name, got, want)
					if calls := live.Stats().VerifierCalls - before.VerifierCalls; src != genProc(2) && calls != 0 {
						t.Errorf("%s: %d verifier calls after the compaction; its rows were to be remapped, not dropped", p.Name, calls)
					}
				}
			})
		}
	}
}

// renameProc swaps the procedure name in canonical asm text, giving a
// second live target with byte-identical strands.
func renameProc(src, from, to string) string {
	p, err := asm.ParseProc(src)
	if err != nil {
		panic(err)
	}
	_ = p
	out := ""
	for i := 0; i < len(src); i++ {
		if i+len(from) <= len(src) && src[i:i+len(from)] == from {
			out += to
			i += len(from) - 1
			continue
		}
		out += string(src[i])
	}
	return out
}

// TestWriteDifferentialRandomized drives fixed-seed random scripts
// through both tiers: every prefix ends with queries compared against a
// from-scratch rebuild, so compaction points and tombstone density vary
// arbitrarily.
func TestWriteDifferentialRandomized(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized differential run is slow")
	}
	for _, mode := range []string{"scan", "lsh"} {
		t.Run(mode, func(t *testing.T) {
			rng := rand.New(rand.NewSource(42))
			opts := writeTestOptions(mode)
			var ops []wop
			next := 0
			for round := 0; round < 4; round++ {
				for step := 0; step < 8; step++ {
					switch r := rng.Intn(10); {
					case r < 6:
						ops = append(ops, addOp(genProc(next)))
						next++
					case r < 9 && next > 0:
						ops = append(ops, delOp(fmt.Sprintf("synth_%d", rng.Intn(next))))
					default:
						ops = append(ops, compactOp())
					}
				}
				live := newWriteDB(mode)
				applyScript(t, live, ops, true)
				fresh := buildFresh(t, opts, survivors(t, ops))
				for _, qsrc := range []string{genProc(rng.Intn(next + 1)), gccStyle} {
					q := parse(t, qsrc)
					got, err := live.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					want, err := fresh.Query(q)
					if err != nil {
						t.Fatal(err)
					}
					diffReports(t, fmt.Sprintf("round %d query %s", round, q.Name), got, want)
				}
			}
		})
	}
}

// TestCompactRoundTrip compacts through a persist callback that saves
// the export, then reloads it: the reloaded engine carries the new
// generation and high-water mark and answers bit-identically.
func TestCompactRoundTrip(t *testing.T) {
	db := NewDB(writeTestOptions("scan"))
	for _, i := range []int{1, 2, 3, 4} {
		if err := db.ApplyAdd(parse(t, genProc(i))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.ApplyRemove("synth_3"); err != nil {
		t.Fatal(err)
	}
	var saved *Export
	cleaned := uint64(0)
	gen, hwm, err := db.Compact(
		func(ex *Export) error { saved = ex; return nil },
		func(h uint64) error { cleaned = h; return nil },
	)
	if err != nil {
		t.Fatal(err)
	}
	if gen != 1 || hwm != 0 || cleaned != 0 {
		// No journal: seq stays 0, but the generation still advances.
		t.Fatalf("gen=%d hwm=%d cleaned=%d", gen, hwm, cleaned)
	}
	if saved == nil {
		t.Fatal("persist callback never ran")
	}
	if saved.Generation != 1 {
		t.Fatalf("export generation %d, want 1", saved.Generation)
	}
	if db.PendingWrites() != 0 || db.Tombstones() != 0 {
		t.Fatalf("post-compact pending=%d tombstones=%d", db.PendingWrites(), db.Tombstones())
	}

	re, err := FromExport(saved)
	if err != nil {
		t.Fatal(err)
	}
	if re.DataGeneration() != 1 {
		t.Fatalf("reloaded generation %d, want 1", re.DataGeneration())
	}
	q := parse(t, gccStyle)
	got, err := re.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	diffReports(t, "reloaded", got, want)

	// A second compaction with nothing pending is a no-op.
	gen2, _, err := db.Compact(func(*Export) error {
		t.Fatal("no-op compaction ran persist")
		return nil
	}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if gen2 != 1 {
		t.Fatalf("no-op compaction moved generation to %d", gen2)
	}
}
