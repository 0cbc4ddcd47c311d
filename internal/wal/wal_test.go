package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func tmpLog(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "corpus.wal")
}

func mustOpen(t *testing.T, path string, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(path, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", path, err)
	}
	return l, recs
}

func TestAppendReplayRoundTrip(t *testing.T) {
	path := tmpLog(t)
	l, recs := mustOpen(t, path, Options{Sync: SyncNone})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	want := []Record{
		{Seq: 1, Op: OpAdd, Name: "alpha", Body: "proc alpha\n\tret\nendp\n"},
		{Seq: 2, Op: OpDelete, Name: "alpha"},
		{Seq: 3, Op: OpAdd, Name: "beta", Body: "proc beta\n\tret\nendp\n"},
	}
	for _, r := range want {
		seq, err := l.Append(r.Op, r.Name, r.Body)
		if err != nil {
			t.Fatalf("Append: %v", err)
		}
		if seq != r.Seq {
			t.Fatalf("Append assigned seq %d, want %d", seq, r.Seq)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	l2, got := mustOpen(t, path, Options{Sync: SyncNone})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
	}
	if l2.Stats().LastSeq != 3 {
		t.Fatalf("LastSeq = %d, want 3", l2.Stats().LastSeq)
	}
	// Appends continue the sequence after recovery.
	seq, err := l2.Append(OpDelete, "beta", "")
	if err != nil {
		t.Fatalf("Append after recovery: %v", err)
	}
	if seq != 4 {
		t.Fatalf("post-recovery seq = %d, want 4", seq)
	}
}

func TestRewriteDropsCompactedPrefix(t *testing.T) {
	path := tmpLog(t)
	l, _ := mustOpen(t, path, Options{Sync: SyncNone})
	for i := 1; i <= 5; i++ {
		if _, err := l.Append(OpAdd, fmt.Sprintf("t%d", i), "body"); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := l.Rewrite(3); err != nil {
		t.Fatalf("Rewrite: %v", err)
	}
	// The log keeps working on the new inode.
	if seq, err := l.Append(OpAdd, "t6", "body"); err != nil || seq != 6 {
		t.Fatalf("Append after Rewrite = (%d, %v), want (6, nil)", seq, err)
	}
	l.Close()
	_, recs := mustOpen(t, path, Options{Sync: SyncNone})
	if len(recs) != 3 {
		t.Fatalf("after Rewrite(3) replay has %d records, want 3", len(recs))
	}
	if recs[0].Seq != 4 || recs[2].Seq != 6 {
		t.Fatalf("surviving seqs %d..%d, want 4..6", recs[0].Seq, recs[2].Seq)
	}
}

// TestCrashRecoveryEveryPrefix is the fault-injection harness: a valid
// multi-record log is cut at EVERY byte offset (every record boundary
// and every mid-record position), and separately garbled at every
// offset, and replay must recover exactly the longest valid prefix in
// both cases — never an error, never a phantom record.
func TestCrashRecoveryEveryPrefix(t *testing.T) {
	recs := []Record{
		{Seq: 1, Op: OpAdd, Name: "a", Body: "proc a\n\tret\nendp\n"},
		{Seq: 2, Op: OpAdd, Name: "b", Body: "proc b\n\tmov r0, 7\n\tret\nendp\n"},
		{Seq: 3, Op: OpDelete, Name: "a"},
		{Seq: 4, Op: OpAdd, Name: "c", Body: "proc c\n\tret\nendp\n"},
	}
	var full []byte
	boundaries := []int{0} // byte offset after each complete record
	for _, r := range recs {
		full = EncodeRecord(full, r)
		boundaries = append(boundaries, len(full))
	}
	// How many complete records a prefix of length n contains.
	wantRecords := func(n int) int {
		k := 0
		for k+1 < len(boundaries) && boundaries[k+1] <= n {
			k++
		}
		return k
	}

	t.Run("truncate", func(t *testing.T) {
		for cut := 0; cut <= len(full); cut++ {
			path := filepath.Join(t.TempDir(), "cut.wal")
			if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := Open(path, Options{Sync: SyncNone})
			if err != nil {
				t.Fatalf("cut=%d: Open: %v", cut, err)
			}
			want := wantRecords(cut)
			if len(got) != want {
				t.Fatalf("cut=%d: recovered %d records, want %d", cut, len(got), want)
			}
			for i := 0; i < want; i++ {
				if got[i] != recs[i] {
					t.Fatalf("cut=%d: record %d = %+v, want %+v", cut, i, got[i], recs[i])
				}
			}
			st := l.Stats()
			if st.Bytes != int64(boundaries[want]) {
				t.Fatalf("cut=%d: post-recovery size %d, want %d", cut, st.Bytes, boundaries[want])
			}
			// The truncated log must accept appends that a subsequent
			// replay returns — recovery composes with new writes.
			if _, err := l.Append(OpAdd, "z", "zz"); err != nil {
				t.Fatalf("cut=%d: append after recovery: %v", cut, err)
			}
			l.Close()
			_, again, err := Open(path, Options{Sync: SyncNone})
			if err != nil {
				t.Fatalf("cut=%d: reopen: %v", cut, err)
			}
			if len(again) != want+1 || again[want].Name != "z" {
				t.Fatalf("cut=%d: reopen recovered %d records", cut, len(again))
			}
		}
	})

	t.Run("garble", func(t *testing.T) {
		for pos := 0; pos < len(full); pos++ {
			corrupted := append([]byte(nil), full...)
			corrupted[pos] ^= 0xff
			path := filepath.Join(t.TempDir(), "garble.wal")
			if err := os.WriteFile(path, corrupted, 0o644); err != nil {
				t.Fatal(err)
			}
			l, got, err := Open(path, Options{Sync: SyncNone})
			if err != nil {
				t.Fatalf("pos=%d: Open: %v", pos, err)
			}
			l.Close()
			// A flipped byte invalidates the record containing it (or,
			// if it hits a length prefix, possibly re-frames the tail);
			// in every case the records strictly BEFORE the damaged one
			// must survive verbatim, and nothing fabricated may follow.
			intact := 0
			for intact+1 < len(boundaries) && boundaries[intact+1] <= pos {
				intact++
			}
			if len(got) < intact {
				t.Fatalf("pos=%d: recovered %d records, want at least the %d intact ones", pos, len(got), intact)
			}
			for i := 0; i < len(got); i++ {
				// Every recovered record must be one of the originals:
				// CRC makes fabrication astronomically unlikely, and a
				// recovered record implies everything before it decoded.
				if i >= len(recs) || got[i] != recs[i] {
					t.Fatalf("pos=%d: recovered record %d = %+v is not the original", pos, i, got[i])
				}
			}
		}
	})
}

// faultFile short-writes then fails after a byte budget — the
// failfs-style hook: the engine must not acknowledge a write whose
// append errored, and a short write's torn frame must be cut on reopen.
type faultFile struct {
	f       *os.File
	budget  int // bytes allowed before the fault
	tripped bool
}

func (ff *faultFile) Write(p []byte) (int, error) {
	if ff.tripped {
		return 0, errors.New("faultfs: failed disk")
	}
	if len(p) <= ff.budget {
		ff.budget -= len(p)
		return ff.f.Write(p)
	}
	n := ff.budget
	ff.budget = 0
	ff.tripped = true
	if n > 0 {
		if _, err := ff.f.Write(p[:n]); err != nil {
			return 0, err
		}
	}
	return n, errors.New("faultfs: failed disk")
}

func (ff *faultFile) Sync() error {
	if ff.tripped {
		return errors.New("faultfs: failed disk")
	}
	return ff.f.Sync()
}

func (ff *faultFile) Close() error { return ff.f.Close() }

// TestFaultInjectionAppend crashes the writer at every byte budget and
// checks the invariant the engine relies on: a successful Append is
// durable and replayed; a failed Append leaves at most a torn tail
// that recovery cuts, never a half-record that replays.
func TestFaultInjectionAppend(t *testing.T) {
	mutations := []Record{
		{Op: OpAdd, Name: "a", Body: "proc a\n\tret\nendp\n"},
		{Op: OpAdd, Name: "b", Body: "proc b\n\tadd r1, r2\n\tret\nendp\n"},
		{Op: OpDelete, Name: "a"},
	}
	var total int
	{
		var buf []byte
		seq := uint64(0)
		for _, m := range mutations {
			seq++
			buf = EncodeRecord(buf, Record{Seq: seq, Op: m.Op, Name: m.Name, Body: m.Body})
		}
		total = len(buf)
	}
	for budget := 0; budget <= total; budget++ {
		path := filepath.Join(t.TempDir(), "fault.wal")
		var ff *faultFile
		opts := Options{
			Sync: SyncNone,
			OpenFile: func(p string) (File, error) {
				f, err := os.OpenFile(p, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
				if err != nil {
					return nil, err
				}
				ff = &faultFile{f: f, budget: budget}
				return ff, nil
			},
		}
		l, _, err := Open(path, opts)
		if err != nil {
			t.Fatalf("budget=%d: Open: %v", budget, err)
		}
		var acked []uint64
		for _, m := range mutations {
			seq, err := l.Append(m.Op, m.Name, m.Body)
			if err != nil {
				break // engine would refuse to acknowledge
			}
			acked = append(acked, seq)
		}
		l.Close()
		_, recovered, err := Open(path, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("budget=%d: recovery Open: %v", budget, err)
		}
		if len(recovered) < len(acked) {
			t.Fatalf("budget=%d: %d acked writes but only %d recovered — lost acknowledged data",
				budget, len(acked), len(recovered))
		}
		for i, seq := range acked {
			if recovered[i].Seq != seq {
				t.Fatalf("budget=%d: recovered[%d].Seq = %d, want %d", budget, i, recovered[i].Seq, seq)
			}
		}
		// Unacked records may appear at most as a complete final record
		// (the fault hit after the frame was fully buffered) — never as
		// garbage that decodes.
		if len(recovered) > len(acked)+1 {
			t.Fatalf("budget=%d: %d recovered vs %d acked", budget, len(recovered), len(acked))
		}
	}
}

func TestOpenRejectsNonMonotonicSeq(t *testing.T) {
	var buf []byte
	buf = EncodeRecord(buf, Record{Seq: 1, Op: OpAdd, Name: "a", Body: "x"})
	buf = EncodeRecord(buf, Record{Seq: 5, Op: OpAdd, Name: "b", Body: "y"}) // gap
	path := tmpLog(t)
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	l, recs, err := Open(path, Options{Sync: SyncNone})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	if len(recs) != 1 || recs[0].Seq != 1 {
		t.Fatalf("recovered %d records, want the length-1 monotonic prefix", len(recs))
	}
	if !l.Stats().Corrupt {
		t.Fatal("non-monotonic tail not flagged as corrupt")
	}
}

func TestCRCRejectsCorruption(t *testing.T) {
	frame := EncodeRecord(nil, Record{Seq: 1, Op: OpAdd, Name: "victim", Body: "payload"})
	for pos := 4; pos < len(frame)-4; pos++ { // every payload byte
		bad := append([]byte(nil), frame...)
		bad[pos] ^= 0x01
		if _, _, err := DecodeRecord(bad); err == nil {
			t.Fatalf("flipped payload byte %d decoded cleanly", pos)
		}
	}
}

func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{})
	f.Add(EncodeRecord(nil, Record{Seq: 1, Op: OpAdd, Name: "seed", Body: "proc seed\nendp\n"}))
	two := EncodeRecord(nil, Record{Seq: 1, Op: OpAdd, Name: "a", Body: "b1"})
	two = EncodeRecord(two, Record{Seq: 2, Op: OpDelete, Name: "a"})
	f.Add(two)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		// 1. The decoder must never panic and the valid prefix must
		//    re-encode to exactly the bytes it was decoded from.
		recs, validLen, _ := DecodeAll(data)
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}
		var re []byte
		for _, r := range recs {
			re = EncodeRecord(re, r)
		}
		if !bytes.Equal(re, data[:validLen]) {
			t.Fatalf("re-encoded prefix differs from input prefix")
		}
		// 2. Round-trip identity: every decoded record survives
		//    encode→decode unchanged.
		for _, r := range recs {
			frame := EncodeRecord(nil, r)
			got, n, err := DecodeRecord(frame)
			if err != nil || n != len(frame) || got != r {
				t.Fatalf("round trip: %+v -> %+v (n=%d err=%v)", r, got, n, err)
			}
		}
		// 3. Open must agree with DecodeAll and never error on
		//    arbitrary bytes.
		path := filepath.Join(t.TempDir(), "fuzz.wal")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, fromOpen, err := Open(path, Options{Sync: SyncNone})
		if err != nil {
			t.Fatalf("Open on fuzzed bytes: %v", err)
		}
		defer l.Close()
		if len(fromOpen) != len(recs) {
			t.Fatalf("Open recovered %d records, DecodeAll %d", len(fromOpen), len(recs))
		}
	})
}

// TestOpenRefusesUnknownSyncPolicy: a policy that names neither "always"
// nor "none" is an error, not a silent "none".
func TestOpenRefusesUnknownSyncPolicy(t *testing.T) {
	if _, _, err := Open(tmpLog(t), Options{Sync: "sometimes"}); err == nil || !strings.Contains(err.Error(), `"sometimes"`) {
		t.Fatalf("Open with -fsync sometimes = %v, want an error naming the policy", err)
	}
}
