package shard

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/asm"
)

// WireVersion is the version of the /v1/query/partial reply frame. A
// gateway and its shards must agree on it exactly; there is no
// negotiation (the endpoint is internal to a fleet, which is deployed
// as one build).
const WireVersion = 3

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
//	uint32 query blocks | uint32 query strands | float64 sigmoid k | float64 min containment
//	uint32 nq (unique query strands) | uint32 ns (row width) | uint32 nt (targets)
//	string generation | string checksum | string request id | string query name | provenance
//	nq float64 weights
//	nq×ns float64 rows, row-major
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
const frameFixedLen = 4 + 4 + 4 + 4 + 8 + 8 + 4 + 4 + 8 + 8 + 4 + 4 + 4

// minTargetLen is the fewest bytes one target occupies: an empty name,
// an empty provenance and two counts.
const minTargetLen = 4 + (4*4 + 1) + 4 + 4

// AppendTo appends the frame to dst. It refuses a partial whose slabs
// are not dense (ragged rows, a max-VCP vector not as long as the
// weights) — shapes Merge would refuse anyway — or whose counts do not
// fit the header, so a reply is either a well-formed frame or an error
// before the first byte is sent.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	p := f.Partial
	if p == nil {
		return dst, fmt.Errorf("shard: encode frame: no partial")
	}
	nq, nt := len(p.Weights), len(p.Targets)
	if len(p.Rows) != nq {
		return dst, fmt.Errorf("shard: encode frame: %d rows for %d query strands", len(p.Rows), nq)
	}
	ns := 0
	if nq > 0 {
		ns = len(p.Rows[0])
	}
	for i, row := range p.Rows {
		if len(row) != ns {
			return dst, fmt.Errorf("shard: encode frame: row %d has %d entries, row 0 has %d", i, len(row), ns)
		}
	}
	fits := func(vs ...int) bool {
		for _, v := range vs {
			if v < 0 || v > math.MaxUint32 {
				return false
			}
		}
		return true
	}
	if !fits(p.ShardID, p.ShardCount, p.NumBlocks, p.NumStrands, nq, ns, nt, len(f.Trace)) || p.PendingWrites < 0 {
		return dst, fmt.Errorf("shard: encode frame: a header count does not fit its field")
	}
	for k := range p.Targets {
		tp := &p.Targets[k]
		if len(tp.MaxVCP) != nq {
			return dst, fmt.Errorf("shard: encode frame: target %d has %d max-VCP entries for %d query strands", k, len(tp.MaxVCP), nq)
		}
		if !fits(tp.NumBlocks, tp.NumStrands) {
			return dst, fmt.Errorf("shard: encode frame: target %d counts do not fit their fields", k)
		}
	}

	le := binary.LittleEndian
	// Exact for the header and the slabs; 64 bytes per identity is a
	// guess that append corrects.
	dst = slices.Grow(dst, frameFixedLen+8*(nq+nq*ns+nt*nq)+len(f.Trace)+64*(nt+1))
	dst = append(dst, frameMagic...)
	dst = le.AppendUint32(dst, WireVersion)
	dst = le.AppendUint32(dst, uint32(p.ShardID))
	dst = le.AppendUint32(dst, uint32(p.ShardCount))
	dst = le.AppendUint64(dst, p.DataGeneration)
	dst = le.AppendUint64(dst, uint64(p.PendingWrites))
	dst = le.AppendUint32(dst, uint32(p.NumBlocks))
	dst = le.AppendUint32(dst, uint32(p.NumStrands))
	dst = le.AppendUint64(dst, math.Float64bits(p.SigmoidK))
	dst = le.AppendUint64(dst, math.Float64bits(p.MinContainment))
	dst = le.AppendUint32(dst, uint32(nq))
	dst = le.AppendUint32(dst, uint32(ns))
	dst = le.AppendUint32(dst, uint32(nt))
	dst = appendString(dst, p.Generation)
	dst = appendString(dst, p.Checksum)
	dst = appendString(dst, f.RequestID)
	dst = appendString(dst, p.QueryName)
	dst = appendProvenance(dst, p.Source)
	dst = appendFloats(dst, p.Weights)
	for _, row := range p.Rows {
		dst = appendFloats(dst, row)
	}
	for k := range p.Targets {
		tp := &p.Targets[k]
		dst = appendString(dst, tp.Name)
		dst = appendProvenance(dst, tp.Source)
		dst = le.AppendUint32(dst, uint32(tp.NumBlocks))
		dst = le.AppendUint32(dst, uint32(tp.NumStrands))
	}
	for k := range p.Targets {
		dst = appendFloats(dst, p.Targets[k].MaxVCP)
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

// DecodeFrame parses one frame. Every length field is checked against
// the bytes that remain before anything is allocated from it, so a
// truncated or hostile body yields an error, never a panic, and never
// more than a small constant times len(b) of memory. The partial's
// float slabs and strings are copies; only Trace aliases b.
func DecodeFrame(b []byte) (*Frame, error) {
	if len(b) < 8 || string(b[:4]) != frameMagic {
		return nil, &WireVersionError{NotFrame: true}
	}
	if v := binary.LittleEndian.Uint32(b[4:]); v != WireVersion {
		return nil, &WireVersionError{Got: v}
	}
	r := frameReader{b: b[8:]}
	p := &Partial{Identity: Identity{
		ShardID:        int(r.u32()),
		ShardCount:     int(r.u32()),
		DataGeneration: r.u64(),
	}}
	pending := r.u64()
	if pending > math.MaxInt {
		return nil, fmt.Errorf("shard: decode frame: pending writes %d out of range", pending)
	}
	p.PendingWrites = int(pending)
	p.NumBlocks = int(r.u32())
	p.NumStrands = int(r.u32())
	p.SigmoidK = math.Float64frombits(r.u64())
	p.MinContainment = math.Float64frombits(r.u64())
	nq, ns, nt := uint64(r.u32()), uint64(r.u32()), uint64(r.u32())

	f := &Frame{Partial: p}
	p.Generation = r.str()
	p.Checksum = r.str()
	f.RequestID = r.str()
	p.QueryName = r.str()
	p.Source = r.provenance()

	// The three slabs and the targets' minimum footprint must all fit
	// in what is left. nq, ns and nt are below 2^32, so a product of two
	// cannot wrap; bounding each product first keeps the sum from
	// wrapping either.
	rem := uint64(len(r.b))
	if r.err == nil && (nq*ns > rem/8 || nt*nq > rem/8 || nt > rem/minTargetLen ||
		8*(nq+nq*ns+nt*nq)+nt*minTargetLen > rem) {
		r.err = fmt.Errorf("shard: decode frame: %d query strands × %d columns and %d targets do not fit the remaining %d bytes", nq, ns, nt, rem)
	}
	if r.err != nil {
		return nil, r.err
	}

	p.Weights = r.floats(int(nq))
	rows := r.floats(int(nq * ns))
	p.Rows = make([][]float64, nq)
	for i := range p.Rows {
		p.Rows[i] = rows[uint64(i)*ns : uint64(i+1)*ns : uint64(i+1)*ns]
	}
	p.Targets = make([]TargetPartial, nt)
	for k := range p.Targets {
		tp := &p.Targets[k]
		tp.Name = r.str()
		tp.Source = r.provenance()
		tp.NumBlocks = int(r.u32())
		tp.NumStrands = int(r.u32())
	}
	maxVCP := r.floats(int(nt * nq))
	if r.err == nil {
		for k := range p.Targets {
			p.Targets[k].MaxVCP = maxVCP[uint64(k)*nq : uint64(k+1)*nq : uint64(k+1)*nq]
		}
	}
	f.Trace = r.bytes()
	if r.err == nil && len(r.b) != 0 {
		r.err = fmt.Errorf("shard: decode frame: %d trailing bytes", len(r.b))
	}
	if r.err != nil {
		return nil, r.err
	}
	return f, nil
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

// floats reads n float64s into a fresh slice. The caller has already
// bounded n by the bytes remaining.
func (r *frameReader) floats(n int) []float64 {
	b := r.take(8 * uint64(n))
	if b == nil {
		return nil
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
