package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/recfile"
)

// ManifestMagic identifies manifest files; ManifestVersion is the
// current format, the only one read. A manifest is a recfile container,
// like a snapshot.
const (
	ManifestMagic   = "eshmani"
	ManifestVersion = 4
)

// WriteManifest encodes the manifest to w.
func WriteManifest(w io.Writer, m *Manifest) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "generation %s\n", strconv.Quote(m.Generation))
	fmt.Fprintf(&b, "targets %d\n", m.NumTargets)
	fmt.Fprintf(&b, "shards %d\n", len(m.Shards))
	for id, se := range m.Shards {
		fmt.Fprintf(&b, "shard %d %s %d\n", id, strconv.Quote(se.File), se.NumTargets)
	}
	if _, err := recfile.Write(w, ManifestMagic, ManifestVersion, b.Bytes()); err != nil {
		return fmt.Errorf("shard: manifest: %w", err)
	}
	return nil
}

// SaveManifest writes the manifest durably over path (recfile.Replace).
func SaveManifest(path string, m *Manifest) error {
	return recfile.Replace(path, func(w io.Writer) error { return WriteManifest(w, m) })
}

// ReadManifest decodes and verifies a manifest.
func ReadManifest(r io.Reader) (*Manifest, error) {
	body, _, err := recfile.Read(r, ManifestMagic, ManifestVersion, "manifest")
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	m, err := decodeManifest(body)
	if err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	return m, nil
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
	r := recfile.NewReader(body)
	m := &Manifest{}
	toks, err := r.Record("generation", 1)
	if err != nil {
		return nil, err
	}
	if len(toks) != 1 {
		return nil, r.Errf("malformed generation record")
	}
	m.Generation = toks[0]

	toks, err = r.Record("targets", 1)
	if err != nil {
		return nil, err
	}
	m.NumTargets, err = strconv.Atoi(toks[0])
	if err != nil || m.NumTargets < 0 {
		return nil, r.Errf("bad target count %q", toks[0])
	}

	toks, err = r.Record("shards", 1)
	if err != nil {
		return nil, err
	}
	n, err := r.Count(toks[0], "shard")
	if err != nil {
		return nil, err
	}
	if n < 1 {
		return nil, r.Errf("bad shard count %q", toks[0])
	}
	sum := 0
	for id := 0; id < n; id++ {
		toks, err := r.Record("shard", 3)
		if err != nil {
			return nil, err
		}
		if len(toks) != 3 {
			return nil, r.Errf("malformed shard record")
		}
		if got, _ := strconv.Atoi(toks[0]); got != id {
			return nil, r.Errf("shard record %s out of order (want %d)", toks[0], id)
		}
		nt, err := strconv.Atoi(toks[2])
		if err != nil || nt < 0 || nt > m.NumTargets-sum {
			return nil, r.Errf("shard %d target count %q does not fit the %d targets", id, toks[2], m.NumTargets)
		}
		sum += nt
		m.Shards = append(m.Shards, ShardEntry{File: toks[1], NumTargets: nt})
	}
	if sum != m.NumTargets {
		return nil, fmt.Errorf("the shards hold %d targets, the manifest says %d", sum, m.NumTargets)
	}
	return m, r.End()
}

// SaveShards splits the corpus n ways and writes the manifest at path
// with the shard snapshots alongside it (path.0 … path.N-1), returning the
// manifest and the shard exports.
func SaveShards(path string, ex *core.Export, n int) (*Manifest, []*core.Export, error) {
	man, shards, err := Split(ex, n)
	if err != nil {
		return nil, nil, err
	}
	for s, se := range shards {
		file := fmt.Sprintf("%s.%d", filepath.Base(path), s)
		if _, err := index.SaveExportFile(filepath.Join(filepath.Dir(path), file), se); err != nil {
			return nil, nil, fmt.Errorf("shard: save shard %d: %w", s, err)
		}
		man.Shards[s].File = file
	}
	if err := SaveManifest(path, man); err != nil {
		return nil, nil, err
	}
	return man, shards, nil
}
