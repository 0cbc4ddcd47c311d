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
	"repro/internal/stats"
	"repro/internal/vcp"
)

// loadShard loads shard sid's snapshot and holds it to the manifest's
// fleet rule, as eshgw holds the eshd serving it.
func loadShard(man *Manifest, dir string, sid int) (*core.DB, error) {
	db, info, err := index.LoadFileInfoCtx(context.Background(), dir+"/"+man.Shards[sid].File, nil)
	if err != nil {
		return nil, err
	}
	return db, man.CheckShard(sid, info.Shard)
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

// indexProcs indexes procs, in order, the way every test corpus here is
// built.
func indexProcs(t testing.TB, procs []*asm.Proc) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func buildSmallDB(t testing.TB) *core.DB {
	t.Helper()
	return indexProcs(t, []*asm.Proc{parse(t, gccStyle), parse(t, iccStyle), parse(t, memStyle)})
}

// copiesCorpus is the hand-written corpus followed by three renamed
// copies of each procedure, which spread the shared strands over every
// shard.
func copiesCorpus(t testing.TB) []*asm.Proc {
	t.Helper()
	srcs := []string{gccStyle, iccStyle, memStyle}
	var procs []*asm.Proc
	for _, src := range srcs {
		procs = append(procs, parse(t, src))
	}
	for _, src := range srcs {
		for k := 0; k < 3; k++ {
			p := parse(t, src)
			p.Name = fmt.Sprintf("%s_%d", p.Name, k)
			procs = append(procs, p)
		}
	}
	return procs
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
		f, err := DecodeFrame(wire, nil)
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
		// Shard-local strand counts must sum to the union counts, strand
		// by canonical key.
		union := map[string]int{}
		for _, es := range ex.Strands {
			union[es.S.CanonicalKey()] = es.Count
		}
		sum := map[string]int{}
		targets := 0
		for s, se := range shardExs {
			targets += len(se.Targets)
			for j, es := range se.Strands {
				key := es.S.CanonicalKey()
				if _, ok := union[key]; !ok {
					t.Fatalf("n=%d shard %d strand %d: not a strand of the corpus", n, s, j)
				}
				sum[key] += es.Count
			}
		}
		if targets != len(ex.Targets) {
			t.Fatalf("n=%d: shards hold %d targets, corpus has %d", n, targets, len(ex.Targets))
		}
		if !reflect.DeepEqual(sum, union) {
			t.Fatalf("n=%d: shard strand counts sum to %v, union counts %v", n, sum, union)
		}
		// Assignment is the deterministic hash, and every target of the
		// corpus is on one shard, at its corpus position.
		placed := make([]bool, len(ex.Targets))
		for s, se := range shardExs {
			if man.Shards[s].NumTargets != len(se.Targets) {
				t.Fatalf("n=%d shard %d: manifest counts %d targets, the shard holds %d", n, s, man.Shards[s].NumTargets, len(se.Targets))
			}
			for _, st := range se.Targets {
				if got := Assign(st.Name, st.Source, n); got != s {
					t.Fatalf("n=%d: target %s on shard %d, Assign says %d", n, st.Name, s, got)
				}
				ti := st.SplitPos - 1
				if ti < 0 || ti >= len(ex.Targets) || placed[ti] || ex.Targets[ti].Name != st.Name {
					t.Fatalf("n=%d shard %d: target %s at split position %d", n, s, st.Name, st.SplitPos)
				}
				placed[ti] = true
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

// keepTargets is ex cut down to the targets keep selects, in global order,
// with the strands they hold in first-seen order and their counts summed
// from the kept targets: the corpus of a single node holding only them.
func keepTargets(ex *core.Export, keep func(ti int) bool) *core.Export {
	out := &core.Export{Opts: ex.Opts}
	local := map[int]int{}
	for ti, et := range ex.Targets {
		if !keep(ti) {
			continue
		}
		kt := et
		kt.StrandIdx = make([]int, len(et.StrandIdx))
		for k, g := range et.StrandIdx {
			j, ok := local[g]
			if !ok {
				j = len(out.Strands)
				local[g] = j
				out.Strands = append(out.Strands, core.ExportStrand{S: ex.Strands[g].S, Sig: ex.Strands[g].Sig})
			}
			out.Strands[j].Count += et.StrandMult[k]
			kt.StrandIdx[k] = j
		}
		out.Targets = append(out.Targets, kt)
	}
	return out
}

// requireDegradedExact asserts that the merge with shard drop missing is
// byte-identical, ranking and scores, to a single node holding only the
// responding shards' targets.
func requireDegradedExact(t *testing.T, ex *core.Export, man *Manifest, dbs []*core.DB, q *asm.Proc, drop int) {
	t.Helper()
	dropped := map[int]bool{}
	for _, st := range dbs[drop].Export().Targets {
		dropped[st.SplitPos-1] = true
	}
	single, err := core.FromExport(keepTargets(ex, func(ti int) bool { return !dropped[ti] }))
	if err != nil {
		t.Fatal(err)
	}
	want, err := single.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	got, missing := scatterQuery(t, man, dbs, q, drop)
	if len(missing) != 1 || missing[0] != drop {
		t.Fatalf("drop=%d: missing=%v", drop, missing)
	}
	requireIdentical(t, want, got, fmt.Sprintf("%s with shard %d of %d missing", q.Name, drop, len(dbs)))
}

// TestMergeMissingShard: a degraded reply is the single node over the
// reachable shards, bit for bit — the H0 histograms count only the
// responders' strands, including those a missing shard shares.
func TestMergeMissingShard(t *testing.T) {
	ex := indexProcs(t, copiesCorpus(t)).Export()
	for _, n := range []int{2, 4} {
		man, dbs := splitDBs(t, ex, n)
		for drop := 0; drop < n; drop++ {
			for _, src := range []string{gccStyle, memStyle} {
				requireDegradedExact(t, ex, man, dbs, parse(t, src), drop)
			}
		}
	}
}

// TestMergeRejectsMixedFleet: Merge refuses what needs more than one
// partial to judge, or would break its own indexing — a slot out of range,
// split positions that do not fit the manifest's split or are claimed
// twice, partials that disagree on the query — each with an error naming
// the shard. Whether one partial belongs to the fleet at all is judged per
// leg by the gateway (TestGatewayRefusesSwappedReplica).
func TestMergeRejectsMixedFleet(t *testing.T) {
	ex := buildSmallDB(t).Export()
	man, shardExs, err := Split(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	q := parse(t, gccStyle)
	partial := func(se *core.Export) *Partial {
		db, err := core.FromExport(se)
		if err != nil {
			t.Fatal(err)
		}
		qp, err := db.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		return FromQueryPartial(qp, db.Shard())
	}
	partials := func() []*Partial {
		return []*Partial{partial(shardExs[0]), partial(shardExs[1])}
	}
	if _, _, err := Merge(man, partials()); err != nil {
		t.Fatalf("consistent fleet: %v", err)
	}
	for id, want := range map[int]string{2: "shard 2: out of range [0,2)", 0: "two partials for shard 0"} {
		parts := partials()
		parts[1].Shard.ID = id
		if _, _, err := Merge(man, parts); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("shard 1 answering as %d: error %v, want one saying %q", id, err, want)
		}
	}
	// Split positions out of range or claimed twice, and a shard with
	// no query strands but many targets, each through the frame.
	posMan, cases := hostilePositions(t)
	for name, tc := range cases {
		var parts []*Partial
		for _, b := range tc.frames {
			f, err := DecodeFrame(b, nil)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			parts = append(parts, f.Partial)
		}
		if _, _, err := Merge(posMan, parts); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want one saying %q", name, err, tc.want)
		}
	}
	if _, _, err := Merge(man, nil); err == nil {
		t.Fatal("merge of zero partials succeeded")
	}
	// A partial whose histograms do not match its query strands.
	for name, edit := range map[string]func(*Partial){
		"a histogram short": func(p *Partial) { p.H0 = p.H0[:len(p.H0)-1] },
		"a nil histogram":   func(p *Partial) { p.H0 = append([]*stats.H0Accumulator{nil}, p.H0[1:]...) },
	} {
		parts := partials()
		edit(parts[1])
		if _, _, err := Merge(man, parts); err == nil || !strings.Contains(err.Error(), "shard 1") || !strings.Contains(err.Error(), "H0 histogram") {
			t.Errorf("%s: error %v, want one naming shard 1's H0 histograms", name, err)
		}
	}
	// A target with no identity (a JSON partial's "target": null).
	parts := partials()
	parts[1].Targets = append([]core.PartialScore{}, parts[1].Targets...)
	parts[1].Targets[0].Target = nil
	if _, _, err := Merge(man, parts); err == nil || !strings.Contains(err.Error(), "shard 1 target 0 has no identity") {
		t.Errorf("a target without identity: error %v", err)
	}
}

func TestManifestRoundTrip(t *testing.T) {
	ex := buildSmallDB(t).Export()
	man, _, err := Split(ex, 2)
	if err != nil {
		t.Fatal(err)
	}
	man.Shards[0].File = "corpus.eshidx.0"
	man.Shards[1].File = "corpus.eshidx.1"
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
	// A manifest of an earlier version — version 1 (union counts and
	// strand maps), version 2 (an opts record), version 3 (per-shard
	// target lists and checksums) — is refused like an old snapshot: the
	// fleet is re-split, not read.
	_, body, _ := bytes.Cut(buf.Bytes(), []byte("\n"))
	v2 := bytes.Replace(body, []byte("\ntargets "), []byte("\nopts sigmoidk=0\ntargets "), 1)
	for v, b := range map[int][]byte{1: body, 2: v2, 3: body} {
		want := fmt.Sprintf("unsupported format version %d (have 4)", v)
		if _, err := ReadManifest(bytes.NewReader(framed(ManifestMagic, v, b))); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("version %d manifest: error %v, want %q", v, err, want)
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
		man, _, err := SaveShards(dir+"/corpus.eshmani", ex, n)
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
		for s := range man.Shards {
			var err error
			dbs[s], err = loadShard(man, dir, s)
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
			requireDegradedExact(t, ex, man, dbs, q, 0)
		}
	}
}
