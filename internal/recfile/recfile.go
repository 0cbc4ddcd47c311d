// Package recfile is the one on-disk container behind index snapshots
// and fleet manifests — a checksummed header line
//
//	<magic> <version> <body-length> <sha256-of-body>\n
//
// then a body of line records, each a tag and space-separated fields (a
// field with spaces Go-quoted) — and the one durable file replace behind
// those and the WAL rewrite. Reader refuses, naming the line, anything a
// body whose checksum holds may still get wrong, so a decoder built on it
// fails instead of panicking or allocating from an unchecked count.
package recfile

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// Write writes the header for body, then body, and returns the body's
// hex checksum.
func Write(w io.Writer, magic string, version int, body []byte) (string, error) {
	sum := sha256.Sum256(body)
	hexSum := hex.EncodeToString(sum[:])
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", magic, version, len(body), hexSum); err != nil {
		return "", fmt.Errorf("write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return "", fmt.Errorf("write body: %w", err)
	}
	return hexSum, nil
}

// Read reads a file written by Write, refusing any other magic or
// version, a body of another length and a body that fails its checksum.
// It returns the body and its hex checksum; name says what the file is
// in errors ("snapshot", "manifest").
func Read(r io.Reader, magic string, version int, name string) ([]byte, string, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, "", fmt.Errorf("read header: %w", err)
	}
	var gotMagic, sumHex string
	var gotVersion, bodyLen int
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %d %s", &gotMagic, &gotVersion, &bodyLen, &sumHex); err != nil {
		return nil, "", fmt.Errorf("malformed header %q", strings.TrimSpace(header))
	}
	if gotMagic != magic {
		return nil, "", fmt.Errorf("not a %s (magic %q)", name, gotMagic)
	}
	if gotVersion != version {
		return nil, "", fmt.Errorf("unsupported format version %d (have %d)", gotVersion, version)
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, "", fmt.Errorf("read body: %w", err)
	}
	if len(body) != bodyLen {
		return nil, "", fmt.Errorf("truncated %s: body is %d bytes, header says %d", name, len(body), bodyLen)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, "", fmt.Errorf("checksum mismatch: %s is corrupted", name)
	}
	return body, sumHex, nil
}

// WriteIntList appends the record `<tag> <n> <v1> … <vn>` that
// Reader.IntList reads.
func WriteIntList(b *bytes.Buffer, tag string, vals []int) {
	b.WriteString(tag)
	b.WriteByte(' ')
	b.WriteString(strconv.Itoa(len(vals)))
	for _, v := range vals {
		b.WriteByte(' ')
		b.WriteString(strconv.Itoa(v))
	}
	b.WriteByte('\n')
}

// Reader walks a body's line records in order. Its errors name the line
// they are about.
type Reader struct {
	lines []string
	pos   int // lines consumed; the current line's 1-based number
}

// NewReader splits body into its lines.
func NewReader(body []byte) *Reader {
	lines := strings.Split(string(body), "\n")
	if n := len(lines); lines[n-1] == "" {
		lines = lines[:n-1]
	}
	return &Reader{lines: lines}
}

// Errf returns an error about the line last read.
func (r *Reader) Errf(format string, args ...any) error {
	return fmt.Errorf("line %d: %s", r.pos, fmt.Sprintf(format, args...))
}

// Record reads the next line, checks its tag and that at least minFields
// fields follow it, and returns the fields (tag stripped, quoted tokens
// unquoted).
func (r *Reader) Record(tag string, minFields int) ([]string, error) {
	if r.pos >= len(r.lines) {
		return nil, fmt.Errorf("line %d: unexpected end of body, want a %q record", r.pos+1, tag)
	}
	r.pos++
	line := r.lines[r.pos-1]
	toks, err := r.fields(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 || toks[0] != tag {
		return nil, r.Errf("expected %q record, got %q", tag, line)
	}
	if len(toks)-1 < minFields {
		return nil, r.Errf("%q record has %d fields, want at least %d", tag, len(toks)-1, minFields)
	}
	return toks[1:], nil
}

// fields splits a line into tokens, decoding Go-quoted tokens (which may
// contain spaces).
func (r *Reader) fields(line string) ([]string, error) {
	var out []string
	for {
		line = strings.TrimLeft(line, " ")
		if line == "" {
			return out, nil
		}
		if line[0] == '"' {
			q, err := strconv.QuotedPrefix(line)
			if err != nil {
				return nil, r.Errf("bad quoted token: %v", err)
			}
			u, err := strconv.Unquote(q)
			if err != nil {
				return nil, r.Errf("bad quoted token %s: %v", q, err)
			}
			out = append(out, u)
			line = line[len(q):]
			continue
		}
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			return append(out, line), nil
		}
		out = append(out, line[:i])
		line = line[i:]
	}
}

// Ints parses every token as a decimal integer.
func (r *Reader) Ints(toks []string) ([]int, error) {
	out := make([]int, len(toks))
	for i, t := range toks {
		n, err := strconv.Atoi(t)
		if err != nil {
			return nil, r.Errf("bad integer %q", t)
		}
		out[i] = n
	}
	return out, nil
}

// IntList reads a record written by WriteIntList, checking the count
// against the values that follow it. An empty list is nil.
func (r *Reader) IntList(tag string) ([]int, error) {
	toks, err := r.Record(tag, 1)
	if err != nil {
		return nil, err
	}
	vals, err := r.Ints(toks)
	if err != nil {
		return nil, err
	}
	if vals[0] != len(vals)-1 {
		return nil, r.Errf("%q list has %d entries, header says %d", tag, len(vals)-1, vals[0])
	}
	if len(vals) == 1 {
		return nil, nil
	}
	return vals[1:], nil
}

// Count parses tok as the size of a section whose items take at least one
// line each, so it must lie in [0, lines left]; what names the items in
// errors.
func (r *Reader) Count(tok, what string) (int, error) {
	n, err := strconv.Atoi(tok)
	if err != nil {
		return 0, r.Errf("bad %s count %q", what, tok)
	}
	if n < 0 {
		return 0, r.Errf("negative %s count %d", what, n)
	}
	if left := len(r.lines) - r.pos; n > left {
		return 0, r.Errf("%s count %d exceeds the %d lines left", what, n, left)
	}
	return n, nil
}

// End checks that every line has been read.
func (r *Reader) End() error {
	if r.pos != len(r.lines) {
		return fmt.Errorf("line %d: trailing data after the final record", r.pos+1)
	}
	return nil
}

// Replace replaces the file at path with what write writes, durably: to a
// temp file in the same directory, flushed and fsynced, renamed over path,
// then the directory fsynced so the rename itself survives a crash. A
// crash at any point leaves either the old file or the new one at path.
// write's error is returned as is.
func Replace(path string, write func(io.Writer) error) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // fails harmlessly once renamed
	defer tmp.Close()           // a second Close after the checked one is harmless
	bw := bufio.NewWriterSize(tmp, 1<<20)
	if err := write(bw); err != nil {
		return err
	}
	if err := bw.Flush(); err != nil {
		return fmt.Errorf("write %s: %w", tmp.Name(), err)
	}
	if err := tmp.Sync(); err != nil {
		return fmt.Errorf("sync %s: %w", tmp.Name(), err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("close %s: %w", tmp.Name(), err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("sync directory %s: %w", dir, err)
	}
	return nil
}
