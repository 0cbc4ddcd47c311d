package shard

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/stats"
)

// h0Frame is a frame of one query strand whose histogram lane holds the
// given (VCP bits, multiplicity) entries verbatim, valid or not.
func h0Frame(t testing.TB, entries [][2]uint64) []byte {
	t.Helper()
	p := &Partial{QueryPartial: core.QueryPartial{Weights: []float64{1}, H0: []*stats.H0Accumulator{new(stats.H0Accumulator)}}}
	b, err := (&Frame{Partial: p}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	// The lane is the empty histogram's count, followed by the trace length.
	at := len(b) - 8
	out := binary.LittleEndian.AppendUint32(append([]byte{}, b[:at]...), uint32(len(entries)))
	for _, e := range entries {
		out = binary.LittleEndian.AppendUint64(out, e[0])
		out = binary.LittleEndian.AppendUint64(out, e[1])
	}
	return append(out, b[at+4:]...)
}

// hostileH0Frames holds one frame per histogram the decoder must refuse.
func hostileH0Frames(t testing.TB) map[string][]byte {
	bits := math.Float64bits
	half := bits(0.5)
	frames := map[string][]byte{}
	for name, entries := range map[string][][2]uint64{
		"NaN VCP":           {{bits(math.NaN()), 1}},
		"+Inf VCP":          {{bits(math.Inf(1)), 1}},
		"-Inf VCP":          {{bits(math.Inf(-1)), 1}},
		"negative VCP":      {{bits(-0.25), 1}},
		"VCP above one":     {{bits(1.5), 1}},
		"repeated VCP":      {{half, 1}, {half, 1}},
		"descending VCPs":   {{half, 1}, {bits(0.25), 1}},
		"zero multiplicity": {{half, 0}},
		"sum overflows":     {{0, 1 << 53}, {half, 1}},
		"wrapping sum":      {{0, math.MaxUint64}, {half, 2}},
	} {
		frames[name] = h0Frame(t, entries)
	}
	// A count promising more entries than the bytes left.
	b := h0Frame(t, [][2]uint64{{half, 1}})
	binary.LittleEndian.PutUint32(b[len(b)-4-16-4:], 1<<30)
	frames["count beyond the body"] = b
	return frames
}

// hostilePositions is a two-shard split of the copies corpus and, per
// case, both shards' reply frames to one query, in which shard 1 claims
// split positions Merge must refuse, with the text the refusal must hold.
// The decoder takes every one of them: positions are Merge's to judge.
func hostilePositions(t testing.TB) (*Manifest, map[string]struct {
	frames [2][]byte
	want   string
}) {
	t.Helper()
	man, shardExs, err := Split(indexProcs(t, copiesCorpus(t)).Export(), 2)
	if err != nil {
		t.Fatal(err)
	}
	q := parse(t, gccStyle)
	var sent [2]*Partial
	for s, se := range shardExs {
		db, err := core.FromExport(se)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		sent[s] = FromQueryPartial(qp, db.Shard())
	}
	if len(sent[0].Targets) < 1 || len(sent[1].Targets) < 2 {
		t.Fatal("the test needs a target on shard 0 and two on shard 1")
	}
	encode := func(p *Partial) []byte {
		b, err := (&Frame{Partial: p}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// claim is shard 1's frame with its target k at position pos.
	claim := func(k, pos int) []byte {
		p := *sent[1]
		p.Targets = slices.Clone(p.Targets)
		tg := *p.Targets[k].Target
		tg.SplitPos = pos
		p.Targets[k].Target = &tg
		return encode(&p)
	}
	// No query strand, but every target of the split and a thousand more.
	empty := &Partial{Shard: sent[1].Shard}
	empty.QueryName = sent[1].QueryName
	for k := 0; k < man.NumTargets+1000; k++ {
		empty.Targets = append(empty.Targets, core.PartialScore{Target: &core.Target{Name: fmt.Sprint("t", k), SplitPos: k%man.NumTargets + 1}})
	}
	t0, t1 := sent[0].Targets[0].Target, sent[1].Targets[1].Target
	first := encode(sent[0])
	return man, map[string]struct {
		frames [2][]byte
		want   string
	}{
		"position beyond the split": {[2][]byte{first, claim(0, math.MaxUint32)},
			fmt.Sprintf("shard 1 target 0 (%s) claims split position 4294967295, the split has %d targets", sent[1].Targets[0].Target.Name, man.NumTargets)},
		"position repeated within a shard": {[2][]byte{first, claim(0, t1.SplitPos)},
			fmt.Sprintf("shard 1 target 1 (%s) claims split position %d, which %s already holds", t1.Name, t1.SplitPos, sent[1].Targets[0].Target.Name)},
		"position claimed by two shards": {[2][]byte{first, claim(0, t0.SplitPos)},
			fmt.Sprintf("shard 1 target 0 (%s) claims split position %d, which %s already holds", sent[1].Targets[0].Target.Name, t0.SplitPos, t0.Name)},
		"no query strand, many targets": {[2][]byte{first, encode(empty)},
			"shard 1 answered a different query"},
	}
}

// corpusFrames encodes real replies: every query of the hand-written
// corpus against each shard of a 2-way split, one of them traced.
func corpusFrames(t testing.TB) [][]byte {
	t.Helper()
	db := buildSmallDB(t)
	_, shardExs, err := Split(db.Export(), 2)
	if err != nil {
		t.Fatal(err)
	}
	var frames [][]byte
	for s, se := range shardExs {
		sdb, err := core.FromExport(se)
		if err != nil {
			t.Fatal(err)
		}
		for _, src := range []string{gccStyle, memStyle} {
			q, err := asm.ParseProc(src)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := sdb.PartialQueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			f := &Frame{RequestID: "req-1", Partial: FromQueryPartial(qp, sdb.Shard())}
			if s == 1 {
				f.Trace = []byte(`{"name":"query_partial","duration_ms":1.5}`)
			}
			b, err := f.AppendTo(nil)
			if err != nil {
				t.Fatal(err)
			}
			frames = append(frames, b)
		}
	}
	return frames
}

// requireSameFrame asserts two frames carry the same reply, floats
// compared by bit pattern (== would call NaN unequal and −0 equal to 0).
func requireSameFrame(t testing.TB, want, got *Frame) {
	t.Helper()
	if want.RequestID != got.RequestID || string(want.Trace) != string(got.Trace) {
		t.Fatalf("envelope: request id %q/%q, trace %q/%q", got.RequestID, want.RequestID, got.Trace, want.Trace)
	}
	w, g := want.Partial, got.Partial
	if w.Shard != g.Shard || w.QueryName != g.QueryName || w.Source != g.Source ||
		w.NumBlocks != g.NumBlocks || w.NumStrands != g.NumStrands {
		t.Fatalf("header differs:\nwant %+v\ngot  %+v", w, g)
	}
	sameFloats := func(what string, a, b []float64) {
		t.Helper()
		if len(a) != len(b) {
			t.Fatalf("%s: %d values, want %d", what, len(b), len(a))
		}
		for i := range a {
			if !sameBits(a[i], b[i]) {
				t.Fatalf("%s[%d] = %x, want %x", what, i, math.Float64bits(b[i]), math.Float64bits(a[i]))
			}
		}
	}
	sameFloats("weights", w.Weights, g.Weights)
	if len(w.H0) != len(g.H0) || len(w.Targets) != len(g.Targets) {
		t.Fatalf("%d histograms / %d targets, want %d / %d", len(g.H0), len(g.Targets), len(w.H0), len(w.Targets))
	}
	for i := range w.H0 {
		if w.H0[i].Len() != g.H0[i].Len() {
			t.Fatalf("histogram %d: %d values, want %d", i, g.H0[i].Len(), w.H0[i].Len())
		}
		for k := 0; k < w.H0[i].Len(); k++ {
			wv, wm := w.H0[i].At(k)
			gv, gm := g.H0[i].At(k)
			if !sameBits(wv, gv) || wm != gm {
				t.Fatalf("histogram %d entry %d: %x×%d, want %x×%d", i, k, math.Float64bits(gv), gm, math.Float64bits(wv), wm)
			}
		}
	}
	for k := range w.Targets {
		a, b := w.Targets[k].Target, g.Targets[k].Target
		if a.Name != b.Name || a.Source != b.Source || a.NumBlocks != b.NumBlocks || a.NumStrands != b.NumStrands || a.SplitPos != b.SplitPos {
			t.Fatalf("target %d: got %+v, want %+v", k, b, a)
		}
		sameFloats("max-VCP", w.Targets[k].MaxVCP, g.Targets[k].MaxVCP)
	}
}

// TestFrameTruncatedEveryPrefix cuts real frames at every byte: every
// strict prefix must be refused (the trace length is always present, so
// no cut point leaves a shorter valid frame), and the whole frame must
// decode back to itself.
func TestFrameTruncatedEveryPrefix(t *testing.T) {
	for _, full := range corpusFrames(t) {
		want, err := DecodeFrame(full, nil)
		if err != nil {
			t.Fatalf("full frame: %v", err)
		}
		again, err := want.AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(full) {
			t.Fatal("decode → encode did not reproduce the frame bytes")
		}
		for cut := 0; cut < len(full); cut++ {
			if f, err := DecodeFrame(full[:cut:cut], nil); err == nil {
				t.Fatalf("cut=%d of %d: decoded a frame with %d targets from a truncated body", cut, len(full), len(f.Partial.Targets))
			}
		}
		if _, err := DecodeFrame(append(full[:len(full):len(full)], 0), nil); err == nil {
			t.Fatal("a trailing byte was accepted")
		}
	}
	for name, bad := range hostileH0Frames(t) {
		for cut := 0; cut <= len(bad); cut++ {
			if _, err := DecodeFrame(bad[:cut:cut], nil); err == nil {
				t.Fatalf("%s, cut=%d of %d: decoded", name, cut, len(bad))
			}
		}
	}
}

// TestFrameFloatBits is the property JSON cannot offer: every float64
// bit pattern survives, in every float-carrying field.
func TestFrameFloatBits(t *testing.T) {
	specials := []float64{
		math.NaN(),
		math.Float64frombits(0x7ff8000000000abc), // quiet NaN with a payload
		math.Float64frombits(0xfff0000000000001), // signalling NaN, sign set
		math.Inf(1), math.Inf(-1),
		math.Copysign(0, -1), 0,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.Float64frombits(0x000fffffffffffff), // largest subnormal
		math.MaxFloat64, 0.1, 1,
	}
	p := &Partial{
		QueryPartial: core.QueryPartial{
			QueryName: "q",
			Source:    asm.Provenance{Package: "pkg", SourceSym: "sym", Toolchain: "tc", OptLevel: "-O2", Patched: true},
			Weights:   specials,
		},
		Shard: core.ShardInfo{ID: 1, Count: 2, Generation: "g"},
	}
	// A histogram holds VCPs, so only the specials inside [0, 1] fit one.
	inUnit := []float64{0, math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), 0.1, 1}
	for i := range specials {
		h := new(stats.H0Accumulator)
		for k, v := range inUnit[:i%len(inUnit)+1] {
			h.Add(v, 1+k*i)
		}
		p.H0 = append(p.H0, h)
	}
	for k := range specials { // each a rotation, so every position sees every value
		p.Targets = append(p.Targets, core.PartialScore{
			Target: &core.Target{Name: strings.Repeat("t", k), Source: asm.Provenance{Toolchain: "x"}, NumBlocks: k, NumStrands: 2 * k, SplitPos: k * 1e8},
			MaxVCP: append(append([]float64{}, specials[k:]...), specials[:k]...),
		})
	}
	want := &Frame{RequestID: "rid", Partial: p}
	b, err := want.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(b, nil)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFrame(t, want, got)

	// The empty partial (no query strand survived, no targets) too.
	empty := &Frame{Partial: &Partial{}}
	if b, err = empty.AppendTo(nil); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeFrame(b, nil); err != nil {
		t.Fatal(err)
	}
	requireSameFrame(t, empty, got)
}

func TestFrameRefusesRaggedPartial(t *testing.T) {
	h := new(stats.H0Accumulator)
	for name, p := range map[string]*Partial{
		"missing histogram": {QueryPartial: core.QueryPartial{Weights: []float64{1, 1}, H0: []*stats.H0Accumulator{h}}},
		"nil histogram":     {QueryPartial: core.QueryPartial{Weights: []float64{1}, H0: []*stats.H0Accumulator{nil}}},
		"short max-VCP":     {QueryPartial: core.QueryPartial{Weights: []float64{1}, H0: []*stats.H0Accumulator{h}, Targets: []core.PartialScore{{Target: &core.Target{Name: "t"}}}}},
		"no identity":       {QueryPartial: core.QueryPartial{Weights: []float64{1}, H0: []*stats.H0Accumulator{h}, Targets: []core.PartialScore{{MaxVCP: []float64{0}}}}},
		"negative id":       {Shard: core.ShardInfo{ID: -1}},
		"no partial":        nil,
	} {
		if _, err := (&Frame{Partial: p}).AppendTo(nil); err == nil {
			t.Errorf("%s: encoded", name)
		}
	}
}

// TestFrameWireVersion pins how a reply of the wrong vintage is told
// apart: a JSON body and a frame of another version both yield a
// WireVersionError that names the version this build reads. Version 1
// frames carried a per-target S-VCP lane, version 2 frames no checksum
// and no tier, version 3 frames dense VCP rows instead of H0 histograms,
// version 4 frames the retired heuristic tier's min containment, version
// 5 frames the sigmoid steepness, version 6 frames a drift stamp and a
// snapshot checksum and no split positions; a shard of any of these builds
// must be refused, not misread.
func TestFrameWireVersion(t *testing.T) {
	if WireVersion != 7 {
		t.Fatalf("WireVersion = %d, want 7", WireVersion)
	}
	frame := corpusFrames(t)[0]
	version := func(v uint32) []byte {
		b := append([]byte{}, frame...)
		binary.LittleEndian.PutUint32(b[4:], v)
		return b
	}
	for name, tc := range map[string]struct {
		body     []byte
		notFrame bool
		got      uint32
	}{
		"json body":      {[]byte(`{"partial": {"shard_id": 0}}`), true, 0},
		"empty body":     {nil, true, 0},
		"version 1":      {version(1), false, 1},
		"version 2":      {version(2), false, 2},
		"version 3":      {version(3), false, 3},
		"version 4":      {version(4), false, 4},
		"version 5":      {version(5), false, 5},
		"version 6":      {version(6), false, 6},
		"future version": {version(WireVersion + 6), false, WireVersion + 6},
	} {
		_, err := DecodeFrame(tc.body, nil)
		var wv *WireVersionError
		if !errors.As(err, &wv) {
			t.Fatalf("%s: error %v is not a WireVersionError", name, err)
		}
		if wv.NotFrame != tc.notFrame || wv.Got != tc.got {
			t.Errorf("%s: %+v", name, wv)
		}
		if !strings.Contains(err.Error(), "want wire version 7") && !strings.Contains(err.Error(), "want 7") {
			t.Errorf("%s: %q does not name the expected version", name, err)
		}
	}
}

// TestFrameHostileLengths hands the decoder headers that promise far
// more than the body holds. Each must be refused before anything is
// allocated from the promise — checked by the allocation delta staying
// far below the smallest promised slab.
func TestFrameHostileLengths(t *testing.T) {
	base, err := (&Frame{Partial: &Partial{}}).AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	const nqOff = frameFixedLen - 8 // nq and nt close the fixed header
	for name, dims := range map[string][2]uint32{
		"huge nq":     {1 << 31, 0},
		"huge nt":     {0, 1 << 31},
		"huge nt×nq":  {1, 1 << 28},
		"all maximal": {math.MaxUint32, math.MaxUint32},
	} {
		b := append([]byte{}, base...)
		b = append(b, make([]byte, 64)...) // a little body, nowhere near enough
		for i, v := range dims {
			binary.LittleEndian.PutUint32(b[nqOff+4*i:], v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeFrame(b, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte body", name, grew, len(b))
		}
	}
	for name, b := range hostileH0Frames(t) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeFrame(b, nil)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte body", name, grew, len(b))
		}
	}
	// Split positions Merge must refuse: whatever a frame claims, the
	// merge allocates by the manifest and the frames' own bytes.
	man, cases := hostilePositions(t)
	for name, tc := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		var parts []*Partial
		for _, b := range tc.frames {
			f, err := DecodeFrame(b, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			parts = append(parts, f.Partial)
		}
		_, _, err := Merge(man, parts)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %q", name, err, tc.want)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decode and merge allocated %d bytes for %d + %d frame bytes", name, grew, len(tc.frames[0]), len(tc.frames[1]))
		}
	}
	// Nor does a manifest's target count size the merge.
	huge, frames := syntheticFleet(t, 100, 0)
	huge.NumTargets = 1 << 40
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var parts []*Partial
	for _, b := range frames {
		f, err := DecodeFrame(b, nil)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, f.Partial)
	}
	rep, _, err := Merge(huge, parts)
	runtime.ReadMemStats(&after)
	if err != nil || len(rep.Results) != 200 {
		t.Errorf("a manifest of 2^40 targets over 200: %v", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("a manifest of 2^40 targets: decode and merge allocated %d bytes", grew)
	}
	// A string length past the end of the body.
	b := append([]byte{}, base...)
	binary.LittleEndian.PutUint32(b[frameFixedLen:], math.MaxUint32)
	if _, err := DecodeFrame(b, nil); err == nil {
		t.Error("string length beyond the body accepted")
	}
}

// FuzzPartialFrame: DecodeFrame must never panic on arbitrary bytes, and
// whatever it accepts must survive encode → decode unchanged. Through a
// TargetTable primed from a real frame it must return the same partial,
// or the same error, as without one.
func FuzzPartialFrame(f *testing.F) {
	corpus := corpusFrames(f)
	for _, b := range corpus {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	var primed TargetTable
	if _, err := DecodeFrame(corpus[len(corpus)-1], &primed); err != nil {
		f.Fatal(err)
	}
	// Frames claiming split positions Merge refuses, which decode.
	_, cases := hostilePositions(f)
	for _, tc := range cases {
		f.Add(tc.frames[1])
	}
	// The histogram lane: one valid frame at its edges, and one frame per
	// thing the decoder refuses there.
	f.Add(h0Frame(f, [][2]uint64{{0, 3}, {math.Float64bits(0.5), 1}, {math.Float64bits(1), 1<<53 - 4}}))
	for _, b := range hostileH0Frames(f) {
		f.Add(b)
	}
	f.Add([]byte(`{"partial":{}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeFrame(b, nil)
		var tab TargetTable
		tab.last.Store(primed.last.Load())
		viaTable, tabErr := DecodeFrame(b, &tab)
		if (err == nil) != (tabErr == nil) || err != nil && err.Error() != tabErr.Error() {
			t.Fatalf("without a table: %v; through one: %v", err, tabErr)
		}
		if err != nil {
			return
		}
		requireSameFrame(t, got, viaTable)
		again, err := got.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		back, err := DecodeFrame(again, nil)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		requireSameFrame(t, got, back)
	})
}

// TestFrameBytesGolden pins the exact bytes of every frame corpusFrames
// encodes, by length and SHA-256 (testdata/frames.golden), so a change to
// the types a frame is built from cannot move a byte unnoticed. Each frame
// must also come back byte for byte after a decode through its slot's
// primed TargetTable — the path eshgw takes — and a re-encode.
// Regenerate the golden only for a deliberate wire change (which bumps
// WireVersion): UPDATE_GOLDEN=1 go test -run TestFrameBytesGolden
// ./internal/shard.
func TestFrameBytesGolden(t *testing.T) {
	frames := corpusFrames(t)
	var sb strings.Builder
	for _, b := range frames {
		fmt.Fprintf(&sb, "%d %x\n", len(b), sha256.Sum256(b))
	}
	const path = "testdata/frames.golden"
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	if sb.String() != string(want) {
		t.Fatalf("frame bytes moved:\ngot\n%swant\n%s", sb.String(), want)
	}

	// corpusFrames holds two queries per shard, shard by shard: prime each
	// slot's table with its other query's frame, then decode through it.
	perSlot := len(frames) / 2
	for i, b := range frames {
		var tab TargetTable
		if _, err := DecodeFrame(frames[i/perSlot*perSlot+(i+1)%perSlot], &tab); err != nil {
			t.Fatal(err)
		}
		primed := tab.last.Load()
		f, err := DecodeFrame(b, &tab)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if tab.last.Load() != primed {
			t.Fatalf("frame %d: the primed table was not reused", i)
		}
		again, err := f.AppendTo(nil)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("frame %d: decode through a primed table → encode changed the bytes", i)
		}
	}
}
