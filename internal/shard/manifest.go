package shard

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

	"repro/internal/core"
	"repro/internal/index"
)

// ManifestMagic identifies manifest files; ManifestVersion is the
// current format. The header line mirrors the snapshot format —
//
//	eshmani <version> <body-length> <sha256-of-body>\n
//
// — so corruption is detectable before parsing.
const (
	ManifestMagic   = "eshmani"
	ManifestVersion = 1
)

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// WriteManifest encodes the manifest to w.
func WriteManifest(w io.Writer, m *Manifest) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "generation %s\n", strconv.Quote(m.Generation))
	fmt.Fprintf(&b, "opts sigmoidk=%s lshmincont=%s retrieval=%s\n",
		ftoa(m.SigmoidK), ftoa(m.LSHMinContainment), m.Retrieval)
	fmt.Fprintf(&b, "targets %d\n", m.NumTargets)
	fmt.Fprintf(&b, "counts %d", len(m.Counts))
	for _, c := range m.Counts {
		fmt.Fprintf(&b, " %d", c)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "shards %d\n", len(m.Shards))
	for id, se := range m.Shards {
		fmt.Fprintf(&b, "shard %d %s %s\n", id, strconv.Quote(se.File), strconv.Quote(se.Checksum))
		writeIntList(&b, "st", se.Targets)
		writeIntList(&b, "ss", se.Strands)
	}
	body := b.Bytes()
	sum := sha256.Sum256(body)
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", ManifestMagic, ManifestVersion, len(body), hex.EncodeToString(sum[:])); err != nil {
		return fmt.Errorf("shard: write manifest header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return fmt.Errorf("shard: write manifest body: %w", err)
	}
	return nil
}

func writeIntList(b *bytes.Buffer, tag string, vals []int) {
	fmt.Fprintf(b, "%s %d", tag, len(vals))
	for _, v := range vals {
		fmt.Fprintf(b, " %d", v)
	}
	b.WriteByte('\n')
}

// SaveManifest writes the manifest atomically to path.
func SaveManifest(path string, m *Manifest) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".eshmani-*")
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriter(tmp)
	if err := WriteManifest(bw, m); err != nil {
		tmp.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return fmt.Errorf("shard: flush %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("shard: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	return nil
}

// ReadManifest decodes and verifies a manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("shard: read manifest header: %w", err)
	}
	var magic, sumHex string
	var version, bodyLen int
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %d %s", &magic, &version, &bodyLen, &sumHex); err != nil {
		return nil, fmt.Errorf("shard: malformed manifest header %q", strings.TrimSpace(header))
	}
	if magic != ManifestMagic {
		return nil, fmt.Errorf("shard: not a manifest (magic %q)", magic)
	}
	if version != ManifestVersion {
		return nil, fmt.Errorf("shard: unsupported manifest version %d (have %d)", version, ManifestVersion)
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, fmt.Errorf("shard: read manifest body: %w", err)
	}
	if len(body) != bodyLen {
		return nil, fmt.Errorf("shard: truncated manifest: body is %d bytes, header says %d", len(body), bodyLen)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, fmt.Errorf("shard: manifest checksum mismatch: file is corrupted")
	}
	return decodeManifest(body)
}

// LoadManifest reads a manifest from path.
func LoadManifest(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	defer f.Close()
	m, err := ReadManifest(f)
	if err != nil {
		return nil, fmt.Errorf("shard: load %s: %w", path, err)
	}
	return m, nil
}

func decodeManifest(body []byte) (*Manifest, error) {
	lines := strings.Split(string(body), "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	pos := 0
	next := func() (string, error) {
		if pos >= len(lines) {
			return "", fmt.Errorf("shard: manifest truncated at line %d", pos+1)
		}
		pos++
		return lines[pos-1], nil
	}
	record := func(tag string) ([]string, error) {
		line, err := next()
		if err != nil {
			return nil, err
		}
		toks, err := splitQuoted(line)
		if err != nil {
			return nil, fmt.Errorf("shard: manifest line %d: %w", pos, err)
		}
		if len(toks) == 0 || toks[0] != tag {
			return nil, fmt.Errorf("shard: manifest line %d: expected %q record, got %q", pos, tag, line)
		}
		return toks[1:], nil
	}
	intList := func(tag string) ([]int, error) {
		toks, err := record(tag)
		if err != nil {
			return nil, err
		}
		vals := make([]int, len(toks))
		for i, t := range toks {
			vals[i], err = strconv.Atoi(t)
			if err != nil {
				return nil, fmt.Errorf("shard: manifest line %d: bad integer %q", pos, t)
			}
		}
		if len(vals) == 0 || vals[0] != len(vals)-1 {
			return nil, fmt.Errorf("shard: manifest line %d: %q list length mismatch", pos, tag)
		}
		if len(vals) == 1 {
			return nil, nil // keep empty == nil so manifests round-trip DeepEqual
		}
		return vals[1:], nil
	}

	m := &Manifest{}
	toks, err := record("generation")
	if err != nil {
		return nil, err
	}
	if len(toks) != 1 {
		return nil, fmt.Errorf("shard: manifest: malformed generation record")
	}
	m.Generation = toks[0]

	toks, err = record("opts")
	if err != nil {
		return nil, err
	}
	for _, kv := range toks {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("shard: manifest: bad option %q", kv)
		}
		switch key {
		case "sigmoidk":
			m.SigmoidK, err = strconv.ParseFloat(val, 64)
		case "lshmincont":
			m.LSHMinContainment, err = strconv.ParseFloat(val, 64)
		case "retrieval":
			m.Retrieval, err = core.NormalizeRetrieval(val)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: manifest line %d: bad option %q: %w", pos, kv, err)
		}
	}

	toks, err = record("targets")
	if err != nil {
		return nil, err
	}
	m.NumTargets, err = strconv.Atoi(toks[0])
	if err != nil || m.NumTargets < 0 {
		return nil, fmt.Errorf("shard: manifest: bad target count %q", toks[0])
	}
	if m.Counts, err = intList("counts"); err != nil {
		return nil, err
	}

	toks, err = record("shards")
	if err != nil {
		return nil, err
	}
	n, err := strconv.Atoi(toks[0])
	if err != nil || n < 1 {
		return nil, fmt.Errorf("shard: manifest: bad shard count %q", toks[0])
	}
	m.Shards = make([]ShardEntry, n)
	seenTarget := make([]bool, m.NumTargets)
	for id := 0; id < n; id++ {
		toks, err := record("shard")
		if err != nil {
			return nil, err
		}
		if len(toks) != 3 {
			return nil, fmt.Errorf("shard: manifest: malformed shard record")
		}
		if got, _ := strconv.Atoi(toks[0]); got != id {
			return nil, fmt.Errorf("shard: manifest: shard record %s out of order (want %d)", toks[0], id)
		}
		se := &m.Shards[id]
		se.File, se.Checksum = toks[1], toks[2]
		if se.Targets, err = intList("st"); err != nil {
			return nil, err
		}
		if se.Strands, err = intList("ss"); err != nil {
			return nil, err
		}
		for _, ti := range se.Targets {
			if ti < 0 || ti >= m.NumTargets {
				return nil, fmt.Errorf("shard: manifest: shard %d target index %d out of range [0,%d)", id, ti, m.NumTargets)
			}
			if seenTarget[ti] {
				return nil, fmt.Errorf("shard: manifest: target %d assigned to two shards", ti)
			}
			seenTarget[ti] = true
		}
		for _, g := range se.Strands {
			if g < 0 || g >= len(m.Counts) {
				return nil, fmt.Errorf("shard: manifest: shard %d strand index %d out of range [0,%d)", id, g, len(m.Counts))
			}
		}
	}
	for ti, ok := range seenTarget {
		if !ok {
			return nil, fmt.Errorf("shard: manifest: target %d assigned to no shard", ti)
		}
	}
	if pos != len(lines) {
		return nil, fmt.Errorf("shard: manifest: trailing data after final shard")
	}
	return m, nil
}

// splitQuoted tokenizes a manifest line, decoding %q-quoted tokens.
func splitQuoted(line string) ([]string, error) {
	var out []string
	for {
		line = strings.TrimLeft(line, " ")
		if line == "" {
			return out, nil
		}
		if line[0] == '"' {
			q, err := strconv.QuotedPrefix(line)
			if err != nil {
				return nil, fmt.Errorf("bad quoted token: %w", err)
			}
			u, err := strconv.Unquote(q)
			if err != nil {
				return nil, fmt.Errorf("bad quoted token %s: %w", q, err)
			}
			out = append(out, u)
			line = line[len(q):]
			continue
		}
		if i := strings.IndexByte(line, ' '); i >= 0 {
			out = append(out, line[:i])
			line = line[i:]
		} else {
			return append(out, line), nil
		}
	}
}

// SaveShards splits the corpus n ways and writes the manifest at path
// with the shard snapshots alongside it (path.0 … path.N-1). Each
// snapshot's checksum lands in the manifest, so loading the manifest is
// enough to verify the fleet a gateway is about to trust.
func SaveShards(path string, ex *core.Export, n int) (*Manifest, error) {
	man, shards, err := Split(ex, n)
	if err != nil {
		return nil, err
	}
	for s, se := range shards {
		file := fmt.Sprintf("%s.%d", filepath.Base(path), s)
		info, err := index.SaveExportFile(filepath.Join(filepath.Dir(path), file), se)
		if err != nil {
			return nil, fmt.Errorf("shard: save shard %d: %w", s, err)
		}
		man.Shards[s].File = file
		man.Shards[s].Checksum = info.Checksum
	}
	if err := SaveManifest(path, man); err != nil {
		return nil, err
	}
	return man, nil
}
