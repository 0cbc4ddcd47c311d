// Package shard splits an indexed corpus into N immutable shards and
// merges per-shard query partials back into scores bit-identical to a
// single node holding the whole corpus.
//
// The split is by target procedure: a deterministic hash of the
// target's name and provenance assigns it to one of N shards, and each
// shard's snapshot contains exactly the unique strands its targets
// reference, with shard-local multiplicities that sum (across shards)
// to the union corpus's counts — so the shards' H0 histograms add up to
// the union's. A manifest ties the fleet together: each shard's global
// target indices (so a coordinator can lay targets out in corpus order)
// and each shard snapshot's checksum (so a coordinator can refuse a
// mixed-version fleet).
//
// Everything downstream of the split is exact, not approximate — see
// Merge and core.QueryPartial for the argument.
package shard

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
)

// Manifest describes one split of a corpus into shards. It is written
// next to the shard snapshots by SaveShards and read by the gateway.
type Manifest struct {
	// Generation identifies the split: a hash of the partition content
	// (target assignments, union strand counts), not of the options, so two
	// splits at different settings share it. It is baked into each shard
	// snapshot's header before encoding, so a snapshot and a manifest
	// can vouch for each other without a checksum cycle.
	Generation string
	// SigmoidK records the engine option the corpus was built with. It
	// affects scores, so CheckShard refuses shards reporting another
	// value. Readers ignore unknown opts keys, so a manifest that still
	// says prefilter=, retrieval= or lshmincont= loads.
	SigmoidK float64
	// NumTargets is the union corpus's target count; global target
	// indices below index into that order (the corpus build order, which
	// is also the single-node pre-sort result order).
	NumTargets int
	Shards     []ShardEntry
}

// ShardEntry is one shard's slice of the manifest.
type ShardEntry struct {
	// File is the snapshot's file name, relative to the manifest.
	File string
	// Checksum is the snapshot body's sha256 (index.Info.Checksum).
	Checksum string
	// Targets[k] is the global target index of the shard's k-th target.
	Targets []int
}

// CheckShard is the fleet rule, the one place a shard's identity meets
// the manifest: an answer from a shard reporting id may enter a merge as
// shard sid only if id names that slot of this split, no live write has
// moved its corpus, its snapshot is the one named here (unless either
// checksum is unknown), and it scored at the manifest's sigmoid k. The
// error names the shard and each field that differs, both values.
func (m *Manifest) CheckShard(sid int, id Identity) error {
	if sid < 0 || sid >= len(m.Shards) {
		return fmt.Errorf("shard %d: out of range [0,%d)", sid, len(m.Shards))
	}
	var bad []string
	differs := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	if id.ShardID != sid || id.ShardCount != len(m.Shards) {
		differs("serves shard %d/%d, manifest slot is %d/%d", id.ShardID, id.ShardCount, sid, len(m.Shards))
	}
	if id.Generation != m.Generation {
		differs("generation %q, manifest says %q", id.Generation, m.Generation)
	}
	if id.DataGeneration != 0 || id.PendingWrites != 0 {
		differs("drifted from its snapshot (data generation %d, %d pending writes), re-split the corpus", id.DataGeneration, id.PendingWrites)
	}
	if want := m.Shards[sid].Checksum; id.Checksum != "" && want != "" && id.Checksum != want {
		differs("snapshot checksum %.12s…, manifest says %.12s…", id.Checksum, want)
	}
	if id.SigmoidK != m.SigmoidK {
		differs("sigmoid k %g, manifest says %g", id.SigmoidK, m.SigmoidK)
	}
	if bad == nil {
		return nil
	}
	return fmt.Errorf("shard %d: %s", sid, strings.Join(bad, "; "))
}

// Assign deterministically maps a target to one of n shards: SHA-256
// over the target name and provenance key, top 8 bytes mod n. Any
// process that agrees on (name, provenance, n) agrees on the shard.
// (SHA-256 rather than FNV-1a: the low bit of FNV-1a is the XOR of the
// input bytes' low bits, and corpus targets are named by their
// provenance key — hashing name and key concatenated made that parity
// cancel and sent every target to one shard of two.)
func Assign(name string, src asm.Provenance, n int) int {
	h := sha256.New()
	h.Write([]byte(name))
	h.Write([]byte{0})
	h.Write([]byte(src.Key()))
	return int(binary.BigEndian.Uint64(h.Sum(nil)) % uint64(n))
}

// Split partitions exported corpus state into n shard exports plus the
// manifest tying them together. Checksums and file names in the
// returned manifest are empty; SaveShards fills them in. The input must
// carry real per-target multiplicities (anything built by AddTarget
// does; a corpus round-tripped through a pre-v3 snapshot does not).
func Split(ex *core.Export, n int) (*Manifest, []*core.Export, error) {
	if n < 1 {
		return nil, nil, fmt.Errorf("shard: split into %d shards", n)
	}
	if ex.Shard.Sharded() {
		return nil, nil, fmt.Errorf("shard: input is already shard %d/%d", ex.Shard.ID, ex.Shard.Count)
	}
	multSum := make([]int, len(ex.Strands))
	for ti, t := range ex.Targets {
		if len(t.StrandMult) != len(t.StrandIdx) {
			return nil, nil, fmt.Errorf("shard: target %d (%s) has no per-target strand multiplicities (pre-v3 snapshot?)", ti, t.Name)
		}
		for k, idx := range t.StrandIdx {
			multSum[idx] += t.StrandMult[k]
		}
	}
	for j, es := range ex.Strands {
		if multSum[j] != es.Count {
			return nil, nil, fmt.Errorf("shard: strand %d multiplicities sum to %d, count is %d — corpus is not exactly decomposable", j, multSum[j], es.Count)
		}
	}

	man := &Manifest{
		SigmoidK:   ex.Opts.SigmoidK,
		NumTargets: len(ex.Targets),
		Shards:     make([]ShardEntry, n),
	}
	assign := make([]int, len(ex.Targets))
	for ti, t := range ex.Targets {
		assign[ti] = Assign(t.Name, t.Source, n)
		man.Shards[assign[ti]].Targets = append(man.Shards[assign[ti]].Targets, ti)
	}
	man.Generation = generation(ex, assign, n)

	shards := make([]*core.Export, n)
	for s := 0; s < n; s++ {
		entry := &man.Shards[s]

		// The shard's unique-strand set: the union of its targets'
		// strands, kept in ascending global order so the local order is
		// deterministic.
		inShard := make(map[int]bool)
		for _, ti := range entry.Targets {
			for _, idx := range ex.Targets[ti].StrandIdx {
				inShard[idx] = true
			}
		}
		strands := make([]int, 0, len(inShard))
		for g := range inShard {
			strands = append(strands, g)
		}
		slices.Sort(strands)
		local := make(map[int]int, len(strands))
		for j, g := range strands {
			local[g] = j
		}

		se := &core.Export{
			Opts:  ex.Opts,
			Shard: core.ShardInfo{ID: s, Count: n, Generation: man.Generation},
		}
		se.Strands = make([]core.ExportStrand, len(strands))
		for j, g := range strands {
			se.Strands[j] = core.ExportStrand{S: ex.Strands[g].S, Sig: ex.Strands[g].Sig}
		}
		for _, ti := range entry.Targets {
			t := ex.Targets[ti]
			st := core.ExportTarget{
				Name:       t.Name,
				Source:     t.Source,
				NumBlocks:  t.NumBlocks,
				NumStrands: t.NumStrands,
				StrandIdx:  make([]int, len(t.StrandIdx)),
				StrandMult: append([]int(nil), t.StrandMult...),
			}
			for k, g := range t.StrandIdx {
				st.StrandIdx[k] = local[g]
				se.Strands[local[g]].Count += t.StrandMult[k]
			}
			se.Targets = append(se.Targets, st)
		}
		shards[s] = se
	}
	return man, shards, nil
}

// generation hashes the partition content: shard count, per-target
// assignment, and the global strand counts. 16 hex digits are plenty to
// distinguish fleet generations (this is an identity, not an integrity
// check — the snapshot and manifest checksums carry integrity).
func generation(ex *core.Export, assign []int, n int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	put(n)
	put(len(ex.Targets))
	for ti, t := range ex.Targets {
		h.Write([]byte(t.Name))
		h.Write([]byte{0})
		h.Write([]byte(t.Source.Key()))
		h.Write([]byte{0})
		put(assign[ti])
	}
	put(len(ex.Strands))
	for _, es := range ex.Strands {
		put(es.Count)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
