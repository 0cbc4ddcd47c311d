package shard

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/index"
	"repro/internal/recfile"
)

// ManifestMagic identifies manifest files; ManifestVersion is the
// current format. A manifest is a recfile container, like a snapshot.
const (
	ManifestMagic   = "eshmani"
	ManifestVersion = 1
)

// WriteManifest encodes the manifest to w.
func WriteManifest(w io.Writer, m *Manifest) error {
	var b bytes.Buffer
	fmt.Fprintf(&b, "generation %s\n", strconv.Quote(m.Generation))
	fmt.Fprintf(&b, "opts sigmoidk=%s lshmincont=%s\n",
		recfile.Float(m.SigmoidK), recfile.Float(m.LSHMinContainment))
	fmt.Fprintf(&b, "targets %d\n", m.NumTargets)
	recfile.WriteIntList(&b, "counts", m.Counts)
	fmt.Fprintf(&b, "shards %d\n", len(m.Shards))
	for id, se := range m.Shards {
		fmt.Fprintf(&b, "shard %d %s %s\n", id, strconv.Quote(se.File), strconv.Quote(se.Checksum))
		recfile.WriteIntList(&b, "st", se.Targets)
		recfile.WriteIntList(&b, "ss", se.Strands)
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

	toks, err = r.Record("opts", 0)
	if err != nil {
		return nil, err
	}
	for _, kv := range toks {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, r.Errf("bad option %q", kv)
		}
		switch key {
		case "sigmoidk":
			if m.SigmoidK, err = strconv.ParseFloat(val, 64); err == nil {
				err = core.CheckSigmoidK(m.SigmoidK)
			}
		case "lshmincont":
			if m.LSHMinContainment, err = strconv.ParseFloat(val, 64); err == nil {
				err = core.CheckMinContainment(m.LSHMinContainment)
			}
		}
		if err != nil {
			return nil, r.Errf("bad option %q: %v", kv, err)
		}
	}

	toks, err = r.Record("targets", 1)
	if err != nil {
		return nil, err
	}
	m.NumTargets, err = strconv.Atoi(toks[0])
	if err != nil || m.NumTargets < 0 {
		return nil, r.Errf("bad target count %q", toks[0])
	}
	if m.Counts, err = r.IntList("counts"); err != nil {
		return nil, err
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
	// Keyed by target index, so nothing is allocated from the declared
	// target count before the shard lists account for it.
	seenTarget := make(map[int]bool)
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
		m.Shards = append(m.Shards, ShardEntry{File: toks[1], Checksum: toks[2]})
		se := &m.Shards[id]
		if se.Targets, err = r.IntList("st"); err != nil {
			return nil, err
		}
		for _, ti := range se.Targets {
			if ti < 0 || ti >= m.NumTargets {
				return nil, r.Errf("shard %d target index %d out of range [0,%d)", id, ti, m.NumTargets)
			}
			if seenTarget[ti] {
				return nil, r.Errf("target %d assigned to two shards", ti)
			}
			seenTarget[ti] = true
		}
		if se.Strands, err = r.IntList("ss"); err != nil {
			return nil, err
		}
		for _, g := range se.Strands {
			if g < 0 || g >= len(m.Counts) {
				return nil, r.Errf("shard %d strand index %d out of range [0,%d)", id, g, len(m.Counts))
			}
		}
	}
	if len(seenTarget) < m.NumTargets {
		ti := 0 // every seen index is in range, so one of the first len+1 is missing
		for seenTarget[ti] {
			ti++
		}
		return nil, fmt.Errorf("target %d assigned to no shard", ti)
	}
	return m, r.End()
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
