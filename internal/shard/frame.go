package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sync/atomic"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/stats"
)

// WireVersion is the version of the /v1/query/partial reply frame. A
// gateway and its shards must agree on it exactly; there is no
// negotiation (the endpoint is internal to a fleet, which is deployed
// as one build).
const WireVersion = 5

// frameMagic opens every frame. Its first byte is not '{', so a JSON
// body from a pre-frame shard is told apart without parsing it.
const frameMagic = "eshp"

// Frame is the 200-reply of POST /v1/query/partial: one shard's Partial
// plus the reply envelope. All integers are little-endian; every float64
// travels as its math.Float64bits, so NaN payloads, ±Inf, −0 and
// subnormals survive and bit-identity with the shard's in-memory values
// holds by construction. A string is a uint32 byte length and the bytes;
// a provenance is four strings and one patched byte.
//
//	magic "eshp" | uint32 wire version
//	uint32 shard id | uint32 shard count
//	uint64 data generation | uint64 pending writes
//	uint32 query blocks | uint32 query strands | float64 sigmoid k
//	uint32 nq (unique query strands) | uint32 nt (targets)
//	string generation | string checksum | string request id | string query name | provenance
//	nq float64 weights
//	nq × (uint32 n | n × (float64 VCP | uint64 multiplicity)), the H0 histograms, VCPs ascending
//	nt × (string name | provenance | uint32 blocks | uint32 strands)
//	nt×nq float64 max-VCP, target-major
//	uint32 trace length | the span tree as JSON (length 0: untraced)
type Frame struct {
	RequestID string
	Partial   *Partial
	// Trace is the shard's ?trace=1 span tree, JSON-encoded; empty when
	// the request did not ask for one. After DecodeFrame it aliases the
	// input buffer.
	Trace []byte
}

// WireVersionError reports a reply that is not a frame of this build's
// WireVersion: either no frame at all (NotFrame — in practice the JSON
// body shards replied with before frames existed) or a frame of another
// version.
type WireVersionError struct {
	NotFrame bool
	Got      uint32
}

func (e *WireVersionError) Error() string {
	if e.NotFrame {
		return fmt.Sprintf("shard: partial reply is not a frame (a JSON body from an older eshd?), want wire version %d", WireVersion)
	}
	return fmt.Sprintf("shard: partial frame has wire version %d, want %d", e.Got, WireVersion)
}

// frameFixedLen is the magic, the version and the scalar header.
const frameFixedLen = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 4 + 4

// h0EntryLen is one histogram entry: a VCP and its multiplicity.
const h0EntryLen = 8 + 8

// minTargetLen is the fewest bytes one target occupies: an empty name,
// an empty provenance and two counts.
const minTargetLen = 4 + (4*4 + 1) + 4 + 4

// AppendTo appends the frame to dst. It refuses a partial whose shape
// Merge would refuse anyway — a histogram or a max-VCP vector missing for
// a query strand — or whose counts do not fit the header, so a reply is
// either a well-formed frame or an error before the first byte is sent.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	p := f.Partial
	if p == nil {
		return dst, fmt.Errorf("shard: encode frame: no partial")
	}
	nq, nt := len(p.Weights), len(p.Targets)
	if len(p.H0) != nq || slices.Contains(p.H0, nil) {
		return dst, fmt.Errorf("shard: encode frame: H0 histograms do not match the %d query strands", nq)
	}
	fits := func(vs ...int) bool {
		for _, v := range vs {
			if v < 0 || v > math.MaxUint32 {
				return false
			}
		}
		return true
	}
	if !fits(p.Shard.ID, p.Shard.Count, p.NumBlocks, p.NumStrands, nq, nt, len(f.Trace)) || p.PendingWrites < 0 {
		return dst, fmt.Errorf("shard: encode frame: a header count does not fit its field")
	}
	entries := 0
	for _, h := range p.H0 {
		entries += h.Len()
	}
	for k, ps := range p.Targets {
		if ps.Target == nil {
			return dst, fmt.Errorf("shard: encode frame: target %d has no identity", k)
		}
		if len(ps.MaxVCP) != nq {
			return dst, fmt.Errorf("shard: encode frame: target %d has %d max-VCP entries for %d query strands", k, len(ps.MaxVCP), nq)
		}
		if !fits(ps.Target.NumBlocks, ps.Target.NumStrands) {
			return dst, fmt.Errorf("shard: encode frame: target %d counts do not fit their fields", k)
		}
	}

	le := binary.LittleEndian
	// Exact for the header and the slabs; 64 bytes per identity is a
	// guess that append corrects.
	dst = slices.Grow(dst, frameFixedLen+12*nq+h0EntryLen*entries+8*nt*nq+len(f.Trace)+64*(nt+1))
	dst = append(dst, frameMagic...)
	dst = le.AppendUint32(dst, WireVersion)
	dst = le.AppendUint32(dst, uint32(p.Shard.ID))
	dst = le.AppendUint32(dst, uint32(p.Shard.Count))
	dst = le.AppendUint64(dst, p.DataGeneration)
	dst = le.AppendUint64(dst, uint64(p.PendingWrites))
	dst = le.AppendUint32(dst, uint32(p.NumBlocks))
	dst = le.AppendUint32(dst, uint32(p.NumStrands))
	dst = le.AppendUint64(dst, math.Float64bits(p.SigmoidK))
	dst = le.AppendUint32(dst, uint32(nq))
	dst = le.AppendUint32(dst, uint32(nt))
	dst = appendString(dst, p.Shard.Generation)
	dst = appendString(dst, p.Checksum)
	dst = appendString(dst, f.RequestID)
	dst = appendString(dst, p.QueryName)
	dst = appendProvenance(dst, p.Source)
	dst = appendFloats(dst, p.Weights)
	for _, h := range p.H0 {
		dst = le.AppendUint32(dst, uint32(h.Len()))
		for i := 0; i < h.Len(); i++ {
			v, m := h.At(i)
			dst = le.AppendUint64(dst, math.Float64bits(v))
			dst = le.AppendUint64(dst, uint64(m))
		}
	}
	for _, ps := range p.Targets {
		t := ps.Target
		dst = appendString(dst, t.Name)
		dst = appendProvenance(dst, t.Source)
		dst = le.AppendUint32(dst, uint32(t.NumBlocks))
		dst = le.AppendUint32(dst, uint32(t.NumStrands))
	}
	for _, ps := range p.Targets {
		dst = appendFloats(dst, ps.MaxVCP)
	}
	dst = le.AppendUint32(dst, uint32(len(f.Trace)))
	return append(dst, f.Trace...), nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(s)))
	return append(dst, s...)
}

func appendProvenance(dst []byte, src asm.Provenance) []byte {
	dst = appendString(dst, src.Package)
	dst = appendString(dst, src.SourceSym)
	dst = appendString(dst, src.Toolchain)
	dst = appendString(dst, src.OptLevel)
	if src.Patched {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func appendFloats(dst []byte, fs []float64) []byte {
	n := len(dst)
	dst = slices.Grow(dst, 8*len(fs))[:n+8*len(fs)]
	for i, f := range fs {
		binary.LittleEndian.PutUint64(dst[n+8*i:], math.Float64bits(f))
	}
	return dst
}

// TargetTable is the target identity table last decoded for one shard
// slot. A slot answers every query with the same targets, so DecodeFrame
// decodes them once: it reuses the table for a frame with as many targets
// whose identity section is byte-equal to the bytes the table was decoded
// from, and otherwise decodes afresh and replaces the table. Equal bytes
// decode to equal targets, so a reused table is exact whatever replica
// sent the frame; nothing else about the frame is trusted. The zero value
// is an empty table, safe for concurrent use.
type TargetTable struct {
	last atomic.Pointer[targetTable]
}

// targetTable is one decoded identity section, immutable once built: the
// section's bytes and the targets they encode, in frame order.
type targetTable struct {
	raw     string
	targets []core.Target
}

// DecodeFrame parses one frame. Every length field is checked against
// the bytes that remain before anything is allocated from it, so a
// truncated or hostile body yields an error, never a panic, and never
// more than a small constant times len(b) of memory. A histogram must be
// what an engine sends (stats.H0Accumulator.Append): VCPs in [0, 1],
// strictly ascending, multiplicities positive and summing to at most
// 2^53. The partial's float slabs and strings are copies; only Trace
// aliases b. Its target and max-VCP slabs come from the engine's pools
// (core.QueryPartial.DrawTargets), for Release to hand back.
//
// tab, if not nil, is the sending slot's TargetTable: the partial's
// targets then point into it and are shared with every other partial
// decoded through it, read-only. A frame that fails to decode leaves the
// table as it was.
func DecodeFrame(b []byte, tab *TargetTable) (*Frame, error) {
	if len(b) < 8 || string(b[:4]) != frameMagic {
		return nil, &WireVersionError{NotFrame: true}
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != WireVersion {
		return nil, &WireVersionError{Got: v}
	}
	r := frameReader{b: b[8:]}
	p := &Partial{Shard: core.ShardInfo{ID: int(r.u32()), Count: int(r.u32())}}
	p.DataGeneration = r.u64()
	pending := r.u64()
	if pending > math.MaxInt {
		return nil, fmt.Errorf("shard: decode frame: pending writes %d out of range", pending)
	}
	p.PendingWrites = int(pending)
	p.NumBlocks = int(r.u32())
	p.NumStrands = int(r.u32())
	p.SigmoidK = math.Float64frombits(r.u64())
	nq, nt := uint64(r.u32()), uint64(r.u32())

	f := &Frame{Partial: p}
	p.Shard.Generation = r.str()
	p.Checksum = r.str()
	f.RequestID = r.str()
	p.QueryName = r.str()
	p.Source = r.provenance()

	// The weights, one histogram length per strand, the max-VCP slab and
	// the targets' minimum footprint must all fit in what is left. nq and
	// nt are below 2^32, so their product cannot wrap; bounding each term
	// first keeps the sum from wrapping either.
	rem := uint64(len(r.b))
	if r.err == nil && (nt*nq > rem/8 || nq > rem/12 || nt > rem/minTargetLen ||
		12*nq+8*nt*nq+nt*minTargetLen > rem) {
		r.err = fmt.Errorf("shard: decode frame: %d query strands and %d targets do not fit the remaining %d bytes", nq, nt, rem)
	}
	if r.err != nil {
		return nil, r.err
	}

	p.Weights = r.floats(make([]float64, nq))
	p.H0 = make([]*stats.H0Accumulator, nq)
	for i := range p.H0 {
		p.H0[i] = new(stats.H0Accumulator)
		n := uint64(r.u32())
		if r.err == nil && n > uint64(len(r.b))/h0EntryLen {
			r.err = fmt.Errorf("shard: decode frame: query strand %d: %d H0 values do not fit the remaining %d bytes", i, n, len(r.b))
		}
		for ; n > 0 && r.err == nil; n-- {
			v, m := math.Float64frombits(r.u64()), r.u64()
			if err := p.H0[i].Append(v, m); err != nil && r.err == nil {
				r.err = fmt.Errorf("shard: decode frame: query strand %d: %w", i, err)
			}
		}
	}
	tt, fresh := r.identities(nt, tab)
	if r.err == nil {
		r.floats(p.DrawTargets(int(nt), int(nq)))
		for k := range p.Targets {
			p.Targets[k].Target = &tt.targets[k]
		}
	}
	f.Trace = r.bytes()
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("shard: decode frame: %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		p.Release()
		return nil, r.err
	}
	if fresh && tab != nil {
		tab.last.Store(tt)
	}
	return f, nil
}

// identities reads the frame's nt target identities: tab's table when the
// section starts with the bytes it was decoded from (the section is
// self-delimiting, so that is the whole section), otherwise a fresh
// decode, which fresh reports.
func (r *frameReader) identities(nt uint64, tab *TargetTable) (tt *targetTable, fresh bool) {
	if tab != nil {
		tt = tab.last.Load()
		if tt != nil && uint64(len(tt.targets)) == nt && len(tt.raw) <= len(r.b) && string(r.b[:len(tt.raw)]) == tt.raw {
			r.b = r.b[len(tt.raw):]
			return tt, false
		}
	}
	section := r.b
	targets := make([]core.Target, nt)
	for k := range targets {
		t := &targets[k]
		t.Name = r.str()
		t.Source = r.provenance()
		t.NumBlocks = int(r.u32())
		t.NumStrands = int(r.u32())
	}
	if r.err != nil {
		return nil, false
	}
	return &targetTable{raw: string(section[:len(section)-len(r.b)]), targets: targets}, true
}

// frameReader consumes a frame body front to back. The first short read
// latches err and every later read returns zero values, so the decoder
// reads straight through and checks once.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) take(n uint64) []byte {
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.b)) {
		r.err = fmt.Errorf("shard: decode frame: truncated: need %d bytes, %d left", n, len(r.b))
		return nil
	}
	out := r.b[:n]
	r.b = r.b[n:]
	return out
}

func (r *frameReader) u32() uint32 {
	if b := r.take(4); b != nil {
		return binary.LittleEndian.Uint32(b)
	}
	return 0
}

func (r *frameReader) u64() uint64 {
	if b := r.take(8); b != nil {
		return binary.LittleEndian.Uint64(b)
	}
	return 0
}

// bytes reads a uint32 length and that many bytes, aliasing the input.
func (r *frameReader) bytes() []byte {
	return r.take(uint64(r.u32()))
}

func (r *frameReader) str() string { return string(r.bytes()) }

func (r *frameReader) provenance() asm.Provenance {
	src := asm.Provenance{Package: r.str(), SourceSym: r.str(), Toolchain: r.str(), OptLevel: r.str()}
	if b := r.take(1); b != nil {
		src.Patched = b[0] != 0
	}
	return src
}

// floats fills out with the next len(out) float64s and returns it, or nil
// after a short read. The caller has already bounded len(out) by the bytes
// remaining.
func (r *frameReader) floats(out []float64) []float64 {
	b := r.take(8 * uint64(len(out)))
	if b == nil {
		return nil
	}
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
