package shard

import (
	"context"
	"encoding/binary"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
)

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
	wi, gi := w.Identity, g.Identity
	wi.SigmoidK, wi.MinContainment, gi.SigmoidK, gi.MinContainment = 0, 0, 0, 0
	if wi != gi || !sameBits(w.SigmoidK, g.SigmoidK) || !sameBits(w.MinContainment, g.MinContainment) ||
		w.QueryName != g.QueryName || w.Source != g.Source || w.NumBlocks != g.NumBlocks ||
		w.NumStrands != g.NumStrands {
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
	if len(w.Rows) != len(g.Rows) || len(w.Targets) != len(g.Targets) {
		t.Fatalf("%d rows / %d targets, want %d / %d", len(g.Rows), len(g.Targets), len(w.Rows), len(w.Targets))
	}
	for i := range w.Rows {
		sameFloats("row", w.Rows[i], g.Rows[i])
	}
	for k := range w.Targets {
		a, b := w.Targets[k], g.Targets[k]
		if a.Name != b.Name || a.Source != b.Source || a.NumBlocks != b.NumBlocks || a.NumStrands != b.NumStrands {
			t.Fatalf("target %d: got %+v, want %+v", k, b, a)
		}
		sameFloats("max-VCP", a.MaxVCP, b.MaxVCP)
	}
}

// TestFrameTruncatedEveryPrefix cuts real frames at every byte: every
// strict prefix must be refused (the trace length is always present, so
// no cut point leaves a shorter valid frame), and the whole frame must
// decode back to itself.
func TestFrameTruncatedEveryPrefix(t *testing.T) {
	for _, full := range corpusFrames(t) {
		want, err := DecodeFrame(full)
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
			if f, err := DecodeFrame(full[:cut:cut]); err == nil {
				t.Fatalf("cut=%d of %d: decoded a frame with %d targets from a truncated body", cut, len(full), len(f.Partial.Targets))
			}
		}
		if _, err := DecodeFrame(append(full[:len(full):len(full)], 0)); err == nil {
			t.Fatal("a trailing byte was accepted")
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
	n := len(specials)
	p := &Partial{
		Identity: Identity{ShardID: 1, ShardCount: 2, Generation: "g", Checksum: "c",
			SigmoidK: specials[1], MinContainment: specials[2], DataGeneration: math.MaxUint64, PendingWrites: 3},
		QueryName: "q",
		Source:    asm.Provenance{Package: "pkg", SourceSym: "sym", Toolchain: "tc", OptLevel: "-O2", Patched: true},
		Weights:   specials,
	}
	for i := 0; i < n; i++ { // each row a rotation, so every column sees every value
		p.Rows = append(p.Rows, append(append([]float64{}, specials[i:]...), specials[:i]...))
	}
	for k := range specials {
		p.Targets = append(p.Targets, TargetPartial{
			Name: strings.Repeat("t", k), Source: asm.Provenance{Toolchain: "x"},
			NumBlocks: k, NumStrands: 2 * k, MaxVCP: p.Rows[k],
		})
	}
	want := &Frame{RequestID: "rid", Partial: p}
	b, err := want.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	requireSameFrame(t, want, got)

	// The empty partial (no query strand survived, no targets) too.
	empty := &Frame{Partial: &Partial{}}
	if b, err = empty.AppendTo(nil); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodeFrame(b); err != nil {
		t.Fatal(err)
	}
	requireSameFrame(t, empty, got)
}

func TestFrameRefusesRaggedPartial(t *testing.T) {
	for name, p := range map[string]*Partial{
		"ragged rows":   {Weights: []float64{1, 1}, Rows: [][]float64{{1, 2}, {1}}},
		"missing row":   {Weights: []float64{1, 1}, Rows: [][]float64{{1, 2}}},
		"short max-VCP": {Weights: []float64{1}, Rows: [][]float64{{1}}, Targets: []TargetPartial{{Name: "t"}}},
		"negative id":   {Identity: Identity{ShardID: -1}},
		"no partial":    nil,
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
// and no tier; a shard of either build must be refused, not misread.
func TestFrameWireVersion(t *testing.T) {
	if WireVersion != 3 {
		t.Fatalf("WireVersion = %d, want 3", WireVersion)
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
		"future version": {version(WireVersion + 6), false, WireVersion + 6},
	} {
		_, err := DecodeFrame(tc.body)
		var wv *WireVersionError
		if !errors.As(err, &wv) {
			t.Fatalf("%s: error %v is not a WireVersionError", name, err)
		}
		if wv.NotFrame != tc.notFrame || wv.Got != tc.got {
			t.Errorf("%s: %+v", name, wv)
		}
		if !strings.Contains(err.Error(), "want wire version 3") && !strings.Contains(err.Error(), "want 3") {
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
	const nqOff = frameFixedLen - 12 // nq, ns, nt close the fixed header
	for name, dims := range map[string][3]uint32{
		"huge nq":        {1 << 31, 0, 0},
		"huge nq×ns":     {1 << 16, 1 << 16, 0},
		"wrapping nq×ns": {math.MaxUint32, math.MaxUint32, 0},
		"huge nt":        {0, 0, 1 << 31},
		"huge nt×nq":     {1, 0, 1 << 28},
		"all maximal":    {math.MaxUint32, math.MaxUint32, math.MaxUint32},
	} {
		b := append([]byte{}, base...)
		b = append(b, make([]byte, 64)...) // a little body, nowhere near enough
		for i, v := range dims {
			binary.LittleEndian.PutUint32(b[nqOff+4*i:], v)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := DecodeFrame(b)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s: decoder allocated %d bytes for a %d-byte body", name, grew, len(b))
		}
	}
	// A string length past the end of the body.
	b := append([]byte{}, base...)
	binary.LittleEndian.PutUint32(b[frameFixedLen:], math.MaxUint32)
	if _, err := DecodeFrame(b); err == nil {
		t.Error("string length beyond the body accepted")
	}
}

// FuzzPartialFrame: DecodeFrame must never panic on arbitrary bytes, and
// whatever it accepts must survive encode → decode unchanged.
func FuzzPartialFrame(f *testing.F) {
	for _, b := range corpusFrames(f) {
		f.Add(b)
		f.Add(b[:len(b)/2])
	}
	// A version 3 frame whose identity fills both fields version 2 lacked.
	v3 := &Partial{Identity: Identity{ShardID: 1, ShardCount: 2, Generation: "g", Checksum: strings.Repeat("c", 64), MinContainment: 0.45}}
	if b, err := (&Frame{Partial: v3}).AppendTo(nil); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"partial":{}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		got, err := DecodeFrame(b)
		if err != nil {
			return
		}
		again, err := got.AppendTo(nil)
		if err != nil {
			t.Fatalf("decoded frame does not re-encode: %v", err)
		}
		back, err := DecodeFrame(again)
		if err != nil {
			t.Fatalf("re-encoded frame does not decode: %v", err)
		}
		requireSameFrame(t, got, back)
	})
}
