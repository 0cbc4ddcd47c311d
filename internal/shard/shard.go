// Package shard splits an indexed corpus into N shards and merges
// per-shard query partials back into scores bit-identical to a single
// node holding the whole corpus.
//
// The split is by target procedure: a deterministic hash of the
// target's name and provenance assigns it to one of N shards, and each
// shard's snapshot contains exactly the unique strands its targets
// reference, with shard-local multiplicities that sum (across shards)
// to the union corpus's counts — so the shards' H0 histograms add up to
// the union's. Every target the split places carries its position in
// the union corpus (core.Target.SplitPos), so a coordinator lays targets
// out in corpus order whatever the shards have written since. A manifest
// ties the fleet together: the split's generation, which every shard
// snapshot records, and its size.
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

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
)

// Manifest describes one split of a corpus into shards. It is written
// next to the shard snapshots by SaveShards and read by the gateway.
type Manifest struct {
	// Generation identifies the split: a hash of everything the split
	// holds (options, strands, targets, assignment). It is baked into each
	// shard snapshot's header, so a shard and a manifest vouch for each
	// other by it.
	Generation string
	// NumTargets is the union corpus's target count, which bounds every
	// split position.
	NumTargets int
	Shards     []ShardEntry
}

// ShardEntry is one shard's slice of the manifest.
type ShardEntry struct {
	// File is the snapshot's file name, relative to the manifest.
	File string
	// NumTargets is how many targets the split gave the shard.
	NumTargets int
}

// CheckShard is the fleet rule, the one place a shard's identity meets
// the manifest: an answer from a shard reporting si may enter a merge as
// shard sid only if si names that slot of this split. The gateway applies
// it to every leg it receives and to every replica at boot. Live writes do
// not matter: Merge places a written shard's targets exactly. The error
// names the shard, the field that differs and both values.
func (m *Manifest) CheckShard(sid int, si core.ShardInfo) error {
	switch {
	case sid < 0 || sid >= len(m.Shards):
		return fmt.Errorf("shard %d: out of range [0,%d)", sid, len(m.Shards))
	case si.ID != sid || si.Count != len(m.Shards):
		return fmt.Errorf("shard %d: serves shard %d/%d, manifest slot is %d/%d", sid, si.ID, si.Count, sid, len(m.Shards))
	case si.Generation != m.Generation:
		return fmt.Errorf("shard %d: generation %q, manifest says %q", sid, si.Generation, m.Generation)
	}
	return nil
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
// manifest tying them together; file names in the returned manifest are
// empty, SaveShards fills them in. Each shard target carries its 1-based
// position in ex (core.Target.SplitPos). The input must carry real
// per-target multiplicities, which every snapshot a binary loads does.
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
			return nil, nil, fmt.Errorf("shard: target %d (%s) has %d multiplicities for %d strands", ti, t.Name, len(t.StrandMult), len(t.StrandIdx))
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
		NumTargets: len(ex.Targets),
		Shards:     make([]ShardEntry, n),
	}
	assign := make([]int, len(ex.Targets))
	members := make([][]int, n) // per shard, its targets' indices in ex
	for ti, t := range ex.Targets {
		s := Assign(t.Name, t.Source, n)
		assign[ti] = s
		members[s] = append(members[s], ti)
		man.Shards[s].NumTargets++
	}
	man.Generation = generation(ex, assign, n)

	shards := make([]*core.Export, n)
	for s := 0; s < n; s++ {
		// The shard's unique-strand set: the union of its targets'
		// strands, kept in ascending global order so the local order is
		// deterministic.
		inShard := make(map[int]bool)
		for _, ti := range members[s] {
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
		for _, ti := range members[s] {
			t := ex.Targets[ti]
			st := core.ExportTarget{
				Name:       t.Name,
				Source:     t.Source,
				NumBlocks:  t.NumBlocks,
				NumStrands: t.NumStrands,
				SplitPos:   ti + 1,
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

// generation hashes what the split holds: the shard count, every option
// a snapshot records, every strand's canonical text and count, every
// target with its strands and its shard. A split of the same corpus at
// other settings gets another generation, so the generation alone tells
// a coordinator whether a shard belongs to its fleet. 16 hex digits are
// plenty to tell fleets apart (this is an identity, not an integrity
// check: the snapshot and manifest checksums carry integrity).
func generation(ex *core.Export, assign []int, n int) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		h.Write(buf[:])
	}
	str := func(s string) {
		put(len(s))
		h.Write([]byte(s))
	}
	put(n)
	str(index.OptionsRecord(ex.Opts))
	put(len(ex.Strands))
	for _, es := range ex.Strands {
		str(es.S.CanonicalKey())
		put(es.Count)
	}
	put(len(ex.Targets))
	for ti, t := range ex.Targets {
		str(t.Name)
		str(t.Source.Key())
		put(t.NumBlocks)
		put(t.NumStrands)
		put(len(t.StrandIdx))
		for k, idx := range t.StrandIdx {
			put(idx)
			put(t.StrandMult[k])
		}
		put(assign[ti])
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
