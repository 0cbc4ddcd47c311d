package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/index"
	"repro/internal/vcp"
)

// loadShard loads one shard snapshot and verifies it against the
// manifest checksum — the trust chain eshd+eshgw rely on.
func loadShard(path, wantSum string) (*core.DB, error) {
	db, info, err := index.LoadFileInfoCtx(context.Background(), path, nil)
	if err != nil {
		return nil, err
	}
	if info.Checksum != wantSum {
		return nil, fmt.Errorf("snapshot %s checksum %s, manifest says %s", path, info.Checksum, wantSum)
	}
	return db, nil
}

const gccStyle = `proc checksum_gcc
	xor eax, eax
	mov rcx, rdi
	lea rdx, [rsi+rsi*2]
	shl rdx, 2
	add rdx, 0x20
	imul rcx, rdx
	mov rax, rcx
	shr rax, 7
	xor rax, rcx
	mov r8, rax
	and r8, 0xff
	add rax, r8
	ret
endp`

const iccStyle = `proc checksum_icc
	xor r9d, r9d
	mov r10, rdi
	mov r11, rsi
	imul r11, 3
	imul r11, 4
	add r11, 0x20
	imul r10, r11
	mov rax, r10
	shr rax, 7
	xor rax, r10
	mov rbx, rax
	and rbx, 0xff
	add rax, rbx
	ret
endp`

const memStyle = `proc save_pair
	mov [rdi], rsi
	mov [rdi+8], rdx
	mov rax, rsi
	add rax, rdx
	mov [rdi+16], rax
	call helper
	ret
endp`

func parse(t testing.TB, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildSmallDB(t testing.TB) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, src := range []string{gccStyle, iccStyle, memStyle} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// scatterQuery runs the query through every shard DB and merges, each
// partial round-tripped through the frame eshgw actually reads — so the
// test proves the serialized path loses no bits. The same partials are
// also round-tripped through their JSON form (what tools and the
// benchmark's ledger use) and must merge to the identical report.
func scatterQuery(t *testing.T, man *Manifest, dbs []*core.DB, q *asm.Proc, drop int) (*core.Report, []int) {
	t.Helper()
	var parts, jsonParts []*Partial
	for s, db := range dbs {
		if s == drop {
			continue
		}
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatalf("shard %d partial query: %v", s, err)
		}
		sent := FromQueryPartial(qp, db.Shard())
		wire, err := (&Frame{Partial: sent}).AppendTo(nil)
		if err != nil {
			t.Fatal(err)
		}
		f, err := DecodeFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		parts = append(parts, f.Partial)

		text, err := json.Marshal(sent)
		if err != nil {
			t.Fatal(err)
		}
		p := &Partial{}
		if err := json.Unmarshal(text, p); err != nil {
			t.Fatal(err)
		}
		jsonParts = append(jsonParts, p)
	}
	rep, missing, err := Merge(man, parts)
	if err != nil {
		t.Fatalf("merge: %v", err)
	}
	jsonRep, jsonMissing, err := Merge(man, jsonParts)
	if err != nil {
		t.Fatalf("merge of JSON partials: %v", err)
	}
	if !reflect.DeepEqual(missing, jsonMissing) {
		t.Fatalf("missing shards %v via frames, %v via JSON", missing, jsonMissing)
	}
	requireIdentical(t, rep, jsonRep, "frame vs JSON wire")
	return rep, missing
}

// requireIdentical asserts rankings AND raw scores are bit-identical.
func requireIdentical(t *testing.T, want, got *core.Report, label string) {
	t.Helper()
	if len(want.Results) != len(got.Results) {
		t.Fatalf("%s: %d results, want %d", label, len(got.Results), len(want.Results))
	}
	if got.NumStrands != want.NumStrands || got.NumBlocks != want.NumBlocks {
		t.Fatalf("%s: query shape %d/%d, want %d/%d", label, got.NumStrands, got.NumBlocks, want.NumStrands, want.NumBlocks)
	}
	for i := range want.Results {
		a, b := want.Results[i], got.Results[i]
		if a.Target.Name != b.Target.Name || !reflect.DeepEqual(a.Target.Source, b.Target.Source) {
			t.Fatalf("%s: rank %d is %s, want %s", label, i, b.Target.Name, a.Target.Name)
		}
		if !sameBits(a.GES, b.GES) || !sameBits(a.SLOG, b.SLOG) {
			t.Fatalf("%s: rank %d (%s): scores GES=%x/%x SLOG=%x/%x differ",
				label, i, a.Target.Name,
				math.Float64bits(b.GES), math.Float64bits(a.GES),
				math.Float64bits(b.SLOG), math.Float64bits(a.SLOG))
		}
	}
}

// splitDBs splits the export n ways and rebuilds one DB per shard, the
// way a fleet of eshd processes would from their snapshots.
func splitDBs(t *testing.T, ex *core.Export, n int) (*Manifest, []*core.DB) {
	t.Helper()
	man, shardExs, err := Split(ex, n)
	if err != nil {
		t.Fatal(err)
	}
	dbs := make([]*core.DB, n)
	for s, se := range shardExs {
		dbs[s], err = core.FromExport(se)
		if err != nil {
			t.Fatalf("rebuild shard %d: %v", s, err)
		}
		if got := dbs[s].Shard(); got.ID != s || got.Count != n || got.Generation != man.Generation {
			t.Fatalf("shard %d identity %+v", s, got)
		}
	}
	return man, dbs
}

func TestSplitInvariants(t *testing.T) {
	ex := buildSmallDB(t).Export()
	for _, n := range []int{1, 2, 4} {
		man, shardExs, err := Split(ex, n)
		if err != nil {
			t.Fatal(err)
		}
		if man.NumTargets != len(ex.Targets) {
			t.Fatalf("n=%d: manifest has %d targets, corpus %d", n, man.NumTargets, len(ex.Targets))
		}
		// Shard-local strand counts must sum to the union counts.
		sum := make([]int, len(ex.Strands))
		targets := 0
		for s, se := range shardExs {
			targets += len(se.Targets)
			for j, es := range se.Strands {
				g := man.Shards[s].Strands[j]
				sum[g] += es.Count
				if es.S != ex.Strands[g].S {
					t.Fatalf("n=%d shard %d strand %d: wrong strand aliased", n, s, j)
				}
			}
		}
		if targets != len(ex.Targets) {
			t.Fatalf("n=%d: shards hold %d targets, corpus has %d", n, targets, len(ex.Targets))
		}
		for g, c := range sum {
			if c != ex.Strands[g].Count {
				t.Fatalf("n=%d: strand %d shard counts sum to %d, union count %d", n, g, c, ex.Strands[g].Count)
			}
		}
		// Assignment is the deterministic hash.
		for s, entry := range man.Shards {
			for _, ti := range entry.Targets {
				et := ex.Targets[ti]
				if got := Assign(et.Name, et.Source, n); got != s {
					t.Fatalf("n=%d: target %s on shard %d, Assign says %d", n, et.Name, s, got)
				}
			}
		}
	}
}

// TestMergeDifferential is the exact-merge guard on hand-written
// procedures: for N in {1,2,4}, scattering a query over N shard DBs and
// merging must reproduce the single node's rankings and raw scores to
// the bit, through the frame wire form (and its JSON twin).
func TestMergeDifferential(t *testing.T) {
	ex := buildSmallDB(t).Export()
	single, err := core.FromExport(ex)
	if err != nil {
		t.Fatal(err)
	}
	for _, qsrc := range []string{gccStyle, memStyle} {
		q := parse(t, qsrc)
		want, err := single.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, 2, 4} {
			man, dbs := splitDBs(t, ex, n)
			got, missing := scatterQuery(t, man, dbs, q, -1)
			if len(missing) != 0 {
				t.Fatalf("n=%d: unexpected missing shards %v", n, missing)
			}
			requireIdentical(t, want, got, q.Name)
		}
	}
}

func TestMergeMissingShard(t *testing.T) {
	ex := buildSmallDB(t).Export()
	single, err := core.FromExport(ex)
	if err != nil {
		t.Fatal(err)
	}
	q := parse(t, gccStyle)
	want, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	n := 2
	man, dbs := splitDBs(t, ex, n)
	// Find a shard that actually holds targets, and drop the other one
	// first to exercise the degraded path with survivors.
	for drop := 0; drop < n; drop++ {
		if len(man.Shards[drop].Targets) == len(ex.Targets) {
			continue // dropping it would leave no responders' targets... still valid, skip for assert simplicity
		}
		rep, missing := scatterQuery(t, man, dbs, q, drop)
		if len(missing) != 1 || missing[0] != drop {
			t.Fatalf("drop=%d: missing=%v", drop, missing)
		}
		wantNames := map[string]bool{}
		for _, ti := range man.Shards[drop].Targets {
			wantNames[ex.Targets[ti].Name] = true
		}
		if len(rep.Results) != len(ex.Targets)-len(man.Shards[drop].Targets) {
			t.Fatalf("drop=%d: %d results, want %d", drop, len(rep.Results), len(ex.Targets)-len(man.Shards[drop].Targets))
		}
		for _, ts := range rep.Results {
			if wantNames[ts.Target.Name] {
				t.Fatalf("drop=%d: result includes %s from the dropped shard", drop, ts.Target.Name)
			}
		}
	}
	_ = want
}

// TestMergeRejectsMixedFleet: Merge judges every partial by
// Manifest.CheckShard, so a partial computed at another tier, from
// another snapshot, on a drifted corpus, at another sigmoid k or in
// another fleet fails the merge with an error naming the shard, the field
// and both values. A checksum nobody knows (an in-memory shard, or a
// manifest without one) is not compared.
func TestMergeRejectsMixedFleet(t *testing.T) {
	ex := buildSmallDB(t).Export()
	man, shardExs, err := Split(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	man.Shards[0].Checksum, man.Shards[1].Checksum = "aaaaaaaaaaaaaaaa", "bbbbbbbbbbbbbbbb"
	q := parse(t, gccStyle)
	partials := func(edit func(*core.Options)) []*Partial {
		var parts []*Partial
		for s, se := range shardExs {
			se := *se
			if s == 1 {
				edit(&se.Opts)
			}
			db, err := core.FromExport(&se)
			if err != nil {
				t.Fatal(err)
			}
			qp, err := db.PartialQueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			parts = append(parts, FromQueryPartial(qp, db.Shard()))
		}
		return parts
	}
	sound := func(*core.Options) {}
	if _, _, err := Merge(man, partials(sound)); err != nil {
		t.Fatalf("consistent fleet without checksums: %v", err)
	}
	for _, tc := range []struct {
		name    string
		opts    func(*core.Options)
		id      func(*Identity)
		wantErr string // "" = merges
	}{
		{"heuristic tier", func(o *core.Options) { o.LSHMinContainment = 0.45 }, func(*Identity) {},
			"shard 1: lsh min containment 0.45, manifest says 0"},
		{"other snapshot", sound, func(id *Identity) { id.Checksum = "cccccccccccccccc" },
			"shard 1: snapshot checksum cccccccccccc…, manifest says bbbbbbbbbbbb…"},
		{"its own snapshot", sound, func(id *Identity) { id.Checksum = "bbbbbbbbbbbbbbbb" }, ""},
		{"drifted", sound, func(id *Identity) { id.DataGeneration, id.PendingWrites = 1, 2 },
			"shard 1: drifted from its snapshot (data generation 1, 2 pending writes), re-split the corpus"},
		{"other sigmoid k", sound, func(id *Identity) { id.SigmoidK = 7 }, "shard 1: sigmoid k 7, manifest says 0"},
		{"other generation", sound, func(id *Identity) { id.Generation = "deadbeef" },
			fmt.Sprintf("shard 1: generation %q, manifest says %q", "deadbeef", man.Generation)},
		{"other fleet size", sound, func(id *Identity) { id.ShardCount = 3 }, "shard 1: serves shard 1/3, manifest slot is 1/2"},
		{"no such shard", sound, func(id *Identity) { id.ShardID = 2 }, "shard 2: out of range [0,2)"},
		{"two fields", sound, func(id *Identity) { id.SigmoidK, id.MinContainment = 7, 0.5 },
			"shard 1: sigmoid k 7, manifest says 0; lsh min containment 0.5, manifest says 0"},
	} {
		parts := partials(tc.opts)
		tc.id(&parts[1].Identity)
		_, _, err := Merge(man, parts)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s: error %v, want one saying %q", tc.name, err, tc.wantErr)
		}
	}
	if _, _, err := Merge(man, nil); err == nil {
		t.Fatal("merge of zero partials succeeded")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	ex := buildSmallDB(t).Export()
	man, _, err := Split(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	man.Shards[0].File, man.Shards[0].Checksum = "corpus.eshidx.0", "aa"
	man.Shards[1].File, man.Shards[1].Checksum = "corpus.eshidx.1", "bb"
	var buf bytes.Buffer
	if err := WriteManifest(&buf, man); err != nil {
		t.Fatal(err)
	}
	got, err := ReadManifest(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(man, got) {
		t.Fatalf("manifest round trip:\nwant %+v\ngot  %+v", man, got)
	}
	// A manifest written while kernel=, prefilter= or retrieval= were
	// still option keys loads to the same value, so a gateway reading it
	// checks and merges exactly as it does under this build's manifest.
	reopts := func(from, to string) []byte {
		_, body, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
		return framed(ManifestMagic, ManifestVersion, bytes.Replace(body, []byte(from), []byte(to), 1))
	}
	for _, keys := range []string{"kernel=batch prefilter=off", "retrieval=probe"} {
		if old, err := ReadManifest(bytes.NewReader(reopts(" lshmincont=", " "+keys+" lshmincont="))); err != nil || !reflect.DeepEqual(man, old) {
			t.Fatalf("manifest with retired %s: %v\nwant %+v\ngot  %+v", keys, err, man, old)
		}
	}
	// Corruption must be detected.
	raw := buf.Bytes()
	raw[len(raw)/2] ^= 1
	if _, err := ReadManifest(bytes.NewReader(raw)); err == nil {
		t.Fatal("corrupted manifest accepted")
	}
}

// TestSaveShardsDifferential is the full-path guard on a real (small)
// compiled corpus: save shards + manifest to disk, reload each shard
// snapshot the way eshd would, scatter representative vulnerability
// queries, and require bit-identity with the single node — for N in
// {1,2,4} — plus the one-shard-down degraded path.
func TestSaveShardsDifferential(t *testing.T) {
	if testing.Short() {
		t.Skip("compiled-corpus shard differential is slow")
	}
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs})
	if err != nil {
		t.Fatal(err)
	}
	db := core.NewDB(core.Options{Workers: 4})
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	ex := db.Export()

	qtc, _ := compile.ByName("icc-15.0.1")
	q, err := corpus.CompileVuln(corpus.Vulns()[0], qtc, false)
	if err != nil {
		t.Fatal(err)
	}
	want, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}

	for _, n := range []int{1, 2, 4} {
		dir := t.TempDir()
		man, err := SaveShards(dir+"/corpus.eshmani", ex, n)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := LoadManifest(dir + "/corpus.eshmani")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(man, reloaded) {
			t.Fatalf("n=%d: manifest did not round-trip through disk", n)
		}
		dbs := make([]*core.DB, n)
		for s, se := range man.Shards {
			var err error
			dbs[s], err = loadShard(dir+"/"+se.File, se.Checksum)
			if err != nil {
				t.Fatalf("n=%d shard %d: %v", n, s, err)
			}
		}
		got, missing := scatterQuery(t, man, dbs, q, -1)
		if len(missing) != 0 {
			t.Fatalf("n=%d: missing %v", n, missing)
		}
		requireIdentical(t, want, got, q.Name)
		if n > 1 {
			got, missing = scatterQuery(t, man, dbs, q, 0)
			if len(missing) != 1 || missing[0] != 0 {
				t.Fatalf("n=%d: degraded merge missing=%v", n, missing)
			}
			if len(got.Results) != len(want.Results)-len(man.Shards[0].Targets) {
				t.Fatalf("n=%d: degraded merge has %d results", n, len(got.Results))
			}
		}
	}
}
