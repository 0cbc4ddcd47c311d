// Package wal implements the write-ahead log behind eshd's live write
// path. Every accepted corpus mutation (add or tombstone) is appended
// to the log before it is applied in memory, so a crash at any point
// loses nothing that was acknowledged: on restart the daemon replays
// the log on top of the last snapshot generation and arrives at the
// exact pre-crash corpus.
//
// The on-disk format is a sequence of framed records:
//
//	u32 length | payload | u32 crc32(payload)
//
// with the payload itself laid out as
//
//	u64 seq | u8 op | u32 len(name) | name | body
//
// All integers are little-endian. Sequence numbers are assigned by the
// log, start at 1 (or past a Rewrite's mark), and increase by exactly 1
// per record; replay enforces monotonicity so a partially rewritten log
// cannot silently splice two histories together. The CRC covers the
// payload only — the
// length prefix is validated structurally (a frame that runs past EOF
// is a torn tail, not corruption).
//
// Recovery is longest-valid-prefix: Open scans frames until the first
// torn or corrupt one, truncates the file back to the end of the last
// valid record, and returns the valid records. This is the standard
// contract for a single-writer log where the only mid-write crash
// artifact is a torn tail; anything *before* the tail that fails CRC
// means real corruption, which Open also reports via Stats so the
// operator can tell the two apart.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"repro/internal/recfile"
)

// Op is the mutation kind a record carries.
type Op uint8

const (
	// OpAdd indexes a new target; Body is the canonical assembly text
	// of the procedure (asm.Proc.String()).
	OpAdd Op = 1
	// OpDelete tombstones every live target with the record's Name;
	// Body is empty.
	OpDelete Op = 2
)

// Record is one logged corpus mutation.
type Record struct {
	Seq  uint64
	Op   Op
	Name string
	Body string
}

const (
	frameOverhead = 8         // u32 len + u32 crc
	payloadHeader = 8 + 1 + 4 // seq + op + name length
	// MaxRecordBytes bounds a single payload. Disassembled procedures
	// are a few KB; 16 MiB is far above any legitimate record and lets
	// the decoder reject absurd length prefixes (a corrupt length
	// would otherwise force a huge allocation before the CRC check).
	MaxRecordBytes = 16 << 20
)

// ErrCorrupt is wrapped by decode errors that indicate real corruption
// (bad CRC, impossible lengths, unknown op) as opposed to a torn tail.
var ErrCorrupt = errors.New("wal: corrupt record")

// EncodeRecord appends the framed encoding of r to dst and returns the
// extended slice. It is exported (alongside DecodeRecord) so the fuzz
// harness can check round-trip identity without a file in the way.
func EncodeRecord(dst []byte, r Record) []byte {
	plen := payloadHeader + len(r.Name) + len(r.Body)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(plen))
	start := len(dst)
	dst = binary.LittleEndian.AppendUint64(dst, r.Seq)
	dst = append(dst, byte(r.Op))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.Name)))
	dst = append(dst, r.Name...)
	dst = append(dst, r.Body...)
	crc := crc32.ChecksumIEEE(dst[start:])
	dst = binary.LittleEndian.AppendUint32(dst, crc)
	return dst
}

// DecodeRecord decodes one framed record from the front of b. It
// returns the record and the number of bytes consumed. A frame that
// extends past len(b) returns (zero, 0, io.ErrUnexpectedEOF) — the
// torn-tail signal; len(b)==0 returns io.EOF; anything structurally
// impossible or failing CRC returns an error wrapping ErrCorrupt.
func DecodeRecord(b []byte) (Record, int, error) {
	if len(b) == 0 {
		return Record{}, 0, io.EOF
	}
	if len(b) < 4 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	plen := int(binary.LittleEndian.Uint32(b))
	if plen < payloadHeader || plen > MaxRecordBytes {
		return Record{}, 0, fmt.Errorf("%w: payload length %d", ErrCorrupt, plen)
	}
	if len(b) < 4+plen+4 {
		return Record{}, 0, io.ErrUnexpectedEOF
	}
	payload := b[4 : 4+plen]
	want := binary.LittleEndian.Uint32(b[4+plen:])
	if got := crc32.ChecksumIEEE(payload); got != want {
		return Record{}, 0, fmt.Errorf("%w: crc mismatch (got %08x want %08x)", ErrCorrupt, got, want)
	}
	var r Record
	r.Seq = binary.LittleEndian.Uint64(payload)
	r.Op = Op(payload[8])
	if r.Op != OpAdd && r.Op != OpDelete {
		return Record{}, 0, fmt.Errorf("%w: unknown op %d", ErrCorrupt, r.Op)
	}
	nameLen := int(binary.LittleEndian.Uint32(payload[9:]))
	if nameLen < 0 || payloadHeader+nameLen > plen {
		return Record{}, 0, fmt.Errorf("%w: name length %d exceeds payload", ErrCorrupt, nameLen)
	}
	r.Name = string(payload[payloadHeader : payloadHeader+nameLen])
	r.Body = string(payload[payloadHeader+nameLen:])
	return r, 4 + plen + 4, nil
}

// DecodeAll decodes records from b until the first torn or corrupt
// frame, returning the valid prefix, the byte offset where it ends,
// and the error that stopped the scan (nil when b was fully consumed).
// Sequence numbers must increase by exactly 1 from the first record;
// a non-monotonic record terminates the prefix as corruption.
func DecodeAll(b []byte) (recs []Record, validLen int64, err error) {
	off := 0
	var lastSeq uint64
	for {
		r, n, derr := DecodeRecord(b[off:])
		if derr != nil {
			if errors.Is(derr, io.EOF) {
				return recs, int64(off), nil
			}
			return recs, int64(off), derr
		}
		if lastSeq != 0 && r.Seq != lastSeq+1 {
			return recs, int64(off), fmt.Errorf("%w: sequence %d after %d", ErrCorrupt, r.Seq, lastSeq)
		}
		lastSeq = r.Seq
		recs = append(recs, r)
		off += n
	}
}

// SyncPolicy controls when appends reach stable storage.
type SyncPolicy string

const (
	// SyncAlways fsyncs after every append — an acknowledged write
	// survives an OS crash or power loss.
	SyncAlways SyncPolicy = "always"
	// SyncNone never fsyncs — an acknowledged write survives a process
	// crash but may be lost on an OS crash. For bulk loads and tests.
	SyncNone SyncPolicy = "none"
)

// File is the slice of *os.File the log writes through. The test
// fault-injection hook substitutes a writer that fails, truncates, or
// garbles at chosen offsets.
type File interface {
	io.Writer
	Sync() error
	Close() error
}

// Options configures Open.
type Options struct {
	// Sync selects the fsync policy; empty means SyncAlways.
	Sync SyncPolicy
	// OpenFile, when non-nil, replaces os.OpenFile for the append
	// handle (recovery still reads the file directly). The test
	// harness injects failing writers here.
	OpenFile func(path string) (File, error)
}

// Stats is a point-in-time summary of the log, exposed on /v1/stats
// and as /metrics gauges.
type Stats struct {
	Path          string `json:"path"`
	Records       uint64 `json:"records"`        // appended this process lifetime
	Replayed      int    `json:"replayed"`       // valid records recovered at Open
	LastSeq       uint64 `json:"last_seq"`       // last sequence appended, or the last Rewrite's mark if higher
	Bytes         int64  `json:"bytes"`          // current file size
	Syncs         uint64 `json:"syncs"`          // fsyncs issued
	TruncatedTail int64  `json:"truncated_tail"` // bytes dropped at Open (torn tail)
	Corrupt       bool   `json:"corrupt"`        // tail drop was corruption, not a clean cut
}

// Log is an append-only log and the engine's core.Journal. One mutex
// orders appends, rewrites and reads of its counters.
type Log struct {
	mu    sync.Mutex
	path  string
	opts  Options
	f     File
	stats Stats // stats.LastSeq numbers the next record, stats.Bytes is the file size
}

// Open recovers the log at path (creating it if absent), truncates any
// torn or corrupt tail, and returns the valid records for replay. The
// returned log is positioned to append after the last valid record.
func Open(path string, opts Options) (*Log, []Record, error) {
	if opts.Sync == "" {
		opts.Sync = SyncAlways
	} else if opts.Sync != SyncAlways && opts.Sync != SyncNone {
		return nil, nil, fmt.Errorf("wal: unknown fsync policy %q (always, none)", opts.Sync)
	}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, nil, fmt.Errorf("wal: read %s: %w", path, err)
	}
	recs, validLen, derr := DecodeAll(data)
	if validLen < int64(len(data)) {
		// Torn or corrupt tail: cut the file back to the valid prefix
		// before appending, or the garbage would corrupt the next
		// record's frame boundary.
		if err := os.Truncate(path, validLen); err != nil {
			return nil, nil, fmt.Errorf("wal: truncate torn tail of %s: %w", path, err)
		}
	}
	f, err := openAppend(path, opts)
	if err != nil {
		return nil, nil, err
	}
	l := &Log{path: path, opts: opts, f: f, stats: Stats{
		Path:          path,
		Replayed:      len(recs),
		Bytes:         validLen,
		TruncatedTail: int64(len(data)) - validLen,
		Corrupt:       derr != nil && errors.Is(derr, ErrCorrupt),
	}}
	if n := len(recs); n > 0 {
		l.stats.LastSeq = recs[n-1].Seq
	}
	return l, recs, nil
}

func openAppend(path string, opts Options) (File, error) {
	if opts.OpenFile != nil {
		return opts.OpenFile(path)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open %s: %w", path, err)
	}
	return f, nil
}

// Append assigns the next sequence number to (op, name, body), writes
// the framed record, and syncs per policy. It returns the assigned
// sequence; on error the record must be considered unwritten (a torn
// partial write will be cut at the next Open) and the caller must not
// acknowledge the mutation.
func (l *Log) Append(op Op, name, body string) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	seq := l.stats.LastSeq + 1
	frame := EncodeRecord(nil, Record{Seq: seq, Op: op, Name: name, Body: body})
	if _, err := l.f.Write(frame); err != nil {
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	if l.opts.Sync == SyncAlways {
		if err := l.f.Sync(); err != nil {
			return 0, fmt.Errorf("wal: sync: %w", err)
		}
		l.stats.Syncs++
	}
	l.stats.Records++
	l.stats.LastSeq = seq
	l.stats.Bytes += int64(len(frame))
	return seq, nil
}

// LogAdd journals a target add.
func (l *Log) LogAdd(name, body string) (uint64, error) { return l.Append(OpAdd, name, body) }

// LogRemove journals a tombstone.
func (l *Log) LogRemove(name string) (uint64, error) { return l.Append(OpDelete, name, "") }

// Sync forces the log to stable storage regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.f.Sync(); err != nil {
		return fmt.Errorf("wal: sync: %w", err)
	}
	l.stats.Syncs++
	return nil
}

// Stats returns a snapshot of the log's counters.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.stats
}

// Rewrite atomically drops every record with Seq <= hwm — the records
// a freshly persisted snapshot generation already folds in — and numbers
// the next record past hwm (replay skips one at or below it as folded).
// It replaces the log with the surviving suffix through recfile.Replace
// (fsync, rename, directory fsync), so a crash at any point leaves either
// the old or the new log, both of which replay correctly against their
// snapshot: the old log's already-compacted prefix is skipped at replay by
// the snapshot's WAL high-water mark.
func (l *Log) Rewrite(hwm uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	data, err := os.ReadFile(l.path)
	if err != nil {
		return fmt.Errorf("wal: rewrite read: %w", err)
	}
	recs, _, _ := DecodeAll(data)
	var buf []byte
	for _, r := range recs {
		if r.Seq > hwm {
			buf = EncodeRecord(buf, r)
		}
	}
	if len(buf) < len(data) {
		err = recfile.Replace(l.path, func(w io.Writer) error {
			_, err := w.Write(buf)
			return err
		})
		if err != nil {
			return fmt.Errorf("wal: rewrite: %w", err)
		}
		// Reopen the append handle on the new inode; the old handle
		// points at the unlinked file.
		f, err := openAppend(l.path, l.opts)
		if err != nil {
			return err
		}
		l.f.Close()
		l.f, l.stats.Bytes = f, int64(len(buf))
	}
	l.stats.LastSeq = max(l.stats.LastSeq, hwm)
	return nil
}

// Close releases the append handle. The log must not be used after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.f.Close()
}
