package shard

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/stats"
)

// decodeVia decodes b through tab, failing the test on an error.
func decodeVia(t *testing.T, b []byte, tab *TargetTable) *Frame {
	t.Helper()
	f, err := DecodeFrame(b, tab)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// sharesTargets reports whether two partials point at the same decoded
// identities, target by target.
func sharesTargets(a, b *Partial) bool {
	if len(a.Targets) != len(b.Targets) {
		return false
	}
	for k := range a.Targets {
		if a.Targets[k].Target != b.Targets[k].Target {
			return false
		}
	}
	return true
}

// reencode encodes f again with edit applied to a copy of its target list.
func reencode(t *testing.T, f *Frame, edit func([]core.PartialScore) []core.PartialScore) []byte {
	t.Helper()
	p := *f.Partial
	p.Targets = edit(append([]core.PartialScore{}, p.Targets...))
	b, err := (&Frame{RequestID: f.RequestID, Partial: &p, Trace: f.Trace}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestFrameTargetTableReuse pins the table's one rule: a frame reuses the
// slot's decoded identities exactly when its identity section is the
// same bytes, and whatever path a frame takes, it decodes to what a
// fresh decode gives.
func TestFrameTargetTableReuse(t *testing.T) {
	// Two queries on one shard of a real split: the same identities,
	// other histograms and max-VCPs.
	slot := corpusFrames(t)[2:]
	if bytes.Equal(slot[0], slot[1]) || len(decodeVia(t, slot[0], nil).Partial.Targets) < 2 {
		t.Fatal("the test needs two distinct frames of one shard with two or more targets")
	}
	fresh := func(b []byte) *Frame { return decodeVia(t, b, nil) }

	// Same identities, another query: the targets are shared.
	var tab TargetTable
	first := decodeVia(t, slot[0], &tab)
	second := decodeVia(t, slot[1], &tab)
	if !sharesTargets(first.Partial, second.Partial) {
		t.Fatal("a frame with the table's identity bytes did not reuse the table")
	}
	requireSameFrame(t, fresh(slot[1]), second)

	// One identity byte differs: a fresh decode, which replaces the table.
	for name, edit := range map[string]func(ts []core.PartialScore) []core.PartialScore{
		"first name byte": func(ts []core.PartialScore) []core.PartialScore {
			tg := *ts[0].Target
			tg.Name = "X" + tg.Name[1:]
			ts[0].Target = &tg
			return ts
		},
		"last strand count": func(ts []core.PartialScore) []core.PartialScore {
			tg := *ts[len(ts)-1].Target
			tg.NumStrands++
			ts[len(ts)-1].Target = &tg
			return ts
		},
	} {
		var tab TargetTable
		orig := decodeVia(t, slot[1], &tab)
		edited := reencode(t, orig, edit)
		got := decodeVia(t, edited, &tab)
		if sharesTargets(orig.Partial, got.Partial) {
			t.Fatalf("%s: a frame with other identity bytes reused the table", name)
		}
		requireSameFrame(t, fresh(edited), got)
		if again := decodeVia(t, edited, &tab); !sharesTargets(got.Partial, again.Partial) {
			t.Fatalf("%s: the fresh decode did not replace the table", name)
		}
	}

	// Another target count whose section starts with the same bytes, in
	// both directions: the shorter table is a prefix of the longer one.
	short := reencode(t, fresh(slot[1]), func(ts []core.PartialScore) []core.PartialScore { return ts[:len(ts)-1] })
	for _, order := range [][2][]byte{{slot[1], short}, {short, slot[1]}} {
		var tab TargetTable
		primed := decodeVia(t, order[0], &tab)
		got := decodeVia(t, order[1], &tab)
		if got.Partial.Targets[0].Target == primed.Partial.Targets[0].Target {
			t.Fatalf("a frame of %d targets reused a table of %d", len(got.Partial.Targets), len(primed.Partial.Targets))
		}
		requireSameFrame(t, fresh(order[1]), got)
	}

	// A frame that fails to decode leaves the table alone.
	_, q0 := syntheticFleet(t, 4, 0)
	tab = TargetTable{}
	primed := decodeVia(t, slot[0], &tab)
	if _, err := DecodeFrame(q0[0][:len(q0[0])-1], &tab); err == nil {
		t.Fatal("a truncated frame decoded")
	}
	if got := decodeVia(t, slot[1], &tab); !sharesTargets(primed.Partial, got.Partial) {
		t.Fatal("a frame that failed to decode replaced the table")
	}

	// Two slots' frames, each of two queries, alternating through one
	// table from two goroutines: every decode equals a fresh one.
	_, q1 := syntheticFleet(t, 4, 1)
	frames := [][]byte{q0[0], q1[0], q0[1], q1[1]} // slot 0's two queries, then slot 1's
	const rounds = 50
	tab = TargetTable{}
	got := make([][]*Frame, 2)
	errs := make([]error, 2)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				f, err := DecodeFrame(frames[2*g+i%2], &tab)
				if err != nil {
					errs[g] = err
					return
				}
				got[g] = append(got[g], f)
			}
		}()
	}
	wg.Wait()
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		for i, f := range got[g] {
			requireSameFrame(t, fresh(frames[2*g+i%2]), f)
		}
	}
}

// syntheticFleet is a two-shard fleet of n targets per shard answering a
// three-strand query: the manifest and each shard's reply frame. Queries
// q differ in their histograms and max-VCPs, never in the identities.
func syntheticFleet(t *testing.T, n, q int) (*Manifest, [][]byte) {
	t.Helper()
	man := &Manifest{Generation: "g", NumTargets: 2 * n, Shards: make([]ShardEntry, 2)}
	var frames [][]byte
	for s := range man.Shards {
		p := &Partial{
			Identity:   Identity{ShardID: s, ShardCount: 2, Generation: "g"},
			QueryName:  "q",
			NumBlocks:  4,
			NumStrands: 4,
			Weights:    []float64{1, 2, 1},
		}
		for range p.Weights {
			h := new(stats.H0Accumulator)
			h.Add(0, n)
			h.Add(0.5, 2+q)
			h.Add(1, 1)
			p.H0 = append(p.H0, h)
		}
		for k := 0; k < n; k++ {
			man.Shards[s].Targets = append(man.Shards[s].Targets, 2*k+s)
			p.Targets = append(p.Targets, core.PartialScore{
				Target: &core.Target{
					Name:   fmt.Sprintf("f%d_%d", s, k),
					Source: asm.Provenance{Package: "pkg", SourceSym: fmt.Sprintf("f%d", k), Toolchain: "gcc-4.9", OptLevel: "-O2"},
				},
				MaxVCP: []float64{float64((k+q)%3) / 2, 1, 0},
			})
		}
		b, err := (&Frame{RequestID: "r", Partial: p}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		frames = append(frames, b)
	}
	return man, frames
}

// TestDecodeMergeAllocsFlat: with each slot's table primed, decoding a
// query's frames and merging them allocates the same number of times
// whatever the shards' size — nothing is allocated per target.
func TestDecodeMergeAllocsFlat(t *testing.T) {
	allocs := func(n int) float64 {
		man, frames := syntheticFleet(t, n, 0)
		tabs := make([]TargetTable, len(frames))
		parts := make([]*Partial, len(frames))
		run := func() {
			for s, b := range frames {
				f, err := DecodeFrame(b, &tabs[s])
				if err != nil {
					t.Fatal(err)
				}
				parts[s] = f.Partial
			}
			if _, _, err := Merge(man, parts); err != nil {
				t.Fatal(err)
			}
		}
		run() // prime the tables
		return testing.AllocsPerRun(20, run)
	}
	small, large := allocs(100), allocs(1000)
	if small != large {
		t.Fatalf("decode + merge of one query: %v allocations at 100 targets per shard, %v at 1000", small, large)
	}
}

// TestDecodeMergeBytesFlat is TestDecodeMergeAllocsFlat's byte twin: with
// each slot's table primed, decoding a query's frames, merging them and
// releasing the partials and the report as eshgw does allocates the same
// bytes at 100 and at 1,000 targets per shard. The per-target slabs —
// DecodeFrame's scores and max-VCPs, Merge's laid-out targets, Finalize's
// and the report's — all come from pools.
func TestDecodeMergeBytesFlat(t *testing.T) {
	perQuery := func(n int) int64 {
		man, frames := syntheticFleet(t, n, 0)
		tabs := make([]TargetTable, len(frames))
		parts := make([]*Partial, len(frames))
		run := func(tb testing.TB) {
			for s, b := range frames {
				f, err := DecodeFrame(b, &tabs[s])
				if err != nil {
					tb.Fatal(err)
				}
				parts[s] = f.Partial
			}
			rep, _, err := Merge(man, parts)
			for _, p := range parts {
				p.Release()
			}
			if err != nil {
				tb.Fatal(err)
			}
			rep.Release()
		}
		run(t) // primes the tables and the pools
		return testing.Benchmark(func(b *testing.B) {
			for range b.N {
				run(b)
			}
		}).AllocedBytesPerOp()
	}
	small, large := perQuery(100), perQuery(1000)
	t.Logf("decode + merge of one query: %d B at 100 targets per shard, %d B at 1000", small, large)
	// A slice header or two of slack; unpooled, the slabs cost about 150 B
	// per target here.
	const slack = 64
	if d := large - small; d > slack || d < -slack {
		t.Errorf("decode + merge of one query allocates %d B at 100 targets per shard and %d B at 1000, want within %d B",
			small, large, slack)
	}
}
