package index

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/sketch"
	"repro/internal/vcp"
)

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

func parse(t *testing.T, src string) *asm.Proc {
	t.Helper()
	p, err := asm.ParseProc(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func buildDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Workers: 2})
	for _, src := range []string{iccStyle, memStyle} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

func saveBytes(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := Save(&buf, db); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoundTrip is the format's core guarantee: a reloaded DB produces
// bit-identical Query reports.
func TestRoundTrip(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)

	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumTargets() != db.NumTargets() || db2.NumUniqueStrands() != db.NumUniqueStrands() ||
		db2.TotalStrands() != db.TotalStrands() {
		t.Fatalf("reloaded shape %d/%d/%d, want %d/%d/%d",
			db2.NumTargets(), db2.NumUniqueStrands(), db2.TotalStrands(),
			db.NumTargets(), db.NumUniqueStrands(), db.TotalStrands())
	}

	for _, qsrc := range []string{gccStyle, memStyle} {
		r1, err := db.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		if r1.NumStrands != r2.NumStrands || r1.NumBlocks != r2.NumBlocks {
			t.Fatalf("query shape differs: %+v vs %+v", r1, r2)
		}
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("result count %d vs %d", len(r1.Results), len(r2.Results))
		}
		for i := range r1.Results {
			a, b := r1.Results[i], r2.Results[i]
			if a.Target.Name != b.Target.Name {
				t.Fatalf("rank %d: %s vs %s", i, a.Target.Name, b.Target.Name)
			}
			if a.GES != b.GES || a.SLOG != b.SLOG {
				t.Fatalf("rank %d (%s): scores (%v,%v) vs (%v,%v)",
					i, a.Target.Name, a.GES, a.SLOG, b.GES, b.SLOG)
			}
		}
	}
}

// TestRoundTripStable checks save→load→save produces identical bytes
// (the snapshot is a fixed point).
func TestRoundTripStable(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if snap2 := saveBytes(t, db2); !bytes.Equal(snap, snap2) {
		t.Fatal("snapshot is not a save/load fixed point")
	}
}

func TestOptionsPersist(t *testing.T) {
	db := core.NewDB(core.Options{
		VCP:      vcp.Config{MinVars: 3, SizeRatio: 0.25},
		SigmoidK: 7.5,
		PathLen:  2,
		Workers:  runtime.GOMAXPROCS(0) + 3,
	})
	if err := db.AddTarget(parse(t, iccStyle)); err != nil {
		t.Fatal(err)
	}
	snap := saveBytes(t, db)
	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	got, want := db2.Options(), db.Options()
	if got.SigmoidK != want.SigmoidK || got.PathLen != want.PathLen ||
		got.VCP.MinVars != want.VCP.MinVars || got.VCP.SizeRatio != want.VCP.SizeRatio {
		t.Fatalf("options %+v, want %+v", got, want)
	}
	// Workers is the loading process's to choose: the build host's value
	// is not in the file, and a load-time override bounds the load too.
	if bytes.Contains(snap, []byte("workers=")) || got.Workers != runtime.GOMAXPROCS(0) {
		t.Fatalf("build host's workers leaked into the snapshot: loaded Workers = %d", got.Workers)
	}
	db3, _, err := LoadInfoCtx(context.Background(), bytes.NewReader(snap), func(o core.Options) (core.Options, error) {
		o.Workers = 3
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db3.Options().Workers; got != 3 {
		t.Fatalf("Workers after override = %d, want 3", got)
	}
}

// rewrite passes each body line of a snapshot through edit and
// recomputes the header under the given format version — how these
// tests synthesize foreign snapshots without checked-in fixtures.
func rewrite(t *testing.T, snap []byte, version int, edit func(ln string) string) []byte {
	t.Helper()
	nl := bytes.IndexByte(snap, '\n')
	if nl < 0 {
		t.Fatal("snapshot has no header line")
	}
	lines := strings.Split(string(snap[nl+1:]), "\n")
	for i, ln := range lines {
		lines[i] = edit(ln)
	}
	body := strings.Join(lines, "\n")
	sum := sha256.Sum256([]byte(body))
	return []byte(fmt.Sprintf("%s %d %d %s\n%s", Magic, version, len(body), hex.EncodeToString(sum[:]), body))
}

// TestRetiredOptionKeys: snapshots that carry workers=, kernel=,
// gammabatch=, retrmaxdelta=, cachepairs= or prefilter=, option keys of
// earlier builds, keep loading (unknown keys are ignored, whatever their
// value), answer identically, and re-save without them. The row cache's bound is no longer the
// file's to set: a database loaded from cachepairs=7 serves under the
// constant.
func TestRetiredOptionKeys(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	old := rewrite(t, snap, Version, func(ln string) string {
		if strings.HasPrefix(ln, "options ") {
			ln += " workers=1 kernel=scalar gammabatch=16 retrmaxdelta=64 cachepairs=7 prefilter=lhs"
		}
		return ln
	})
	db2, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("load snapshot with retired keys: %v", err)
	}
	compareQueries(t, db, db2)
	if c := db2.Stats().VCPCache; c.Budget != 1<<21 || c.Held == 0 {
		t.Fatalf("row cache after serving a snapshot that says cachepairs=7: %+v, want rows held under the fixed 2^21", c)
	}
	if !bytes.Equal(saveBytes(t, db2), snap) {
		t.Fatal("re-saved snapshot differs from one that never had the retired keys")
	}
}

// TestBadBodyRejected: a mode string nothing defines must not be read
// as the slow path, and a snapshot without per-target multiplicities
// must not be read as all-ones; like a malformed value, each fails with
// its line.
func TestBadBodyRejected(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	for _, tc := range []struct{ from, to, want string }{
		{"retrieval=scan", "retrieval=prob", `line 1: bad option value "retrieval=prob"`},
		{"lshbands=", "lshbands=x", `line 1: bad option value "lshbands=x`},
		{"mults 2", "mults 0", "mults section has 0 records for 2 targets"},
	} {
		if !bytes.Contains(snap, []byte(tc.from)) {
			t.Fatalf("%s: snapshot has no %q to corrupt", tc.to, tc.from)
		}
		bad := rewrite(t, snap, Version, func(ln string) string { return strings.Replace(ln, tc.from, tc.to, 1) })
		_, err := Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %v, want %q", tc.to, err, tc.want)
		}
	}
}

// TestOldVersionRefused: formats before 6 are no longer decoded — v5,
// the last to carry a retrieval section, included.
func TestOldVersionRefused(t *testing.T) {
	old := rewrite(t, saveBytes(t, buildDB(t)), Version-1, func(ln string) string { return ln })
	_, err := Load(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "unsupported format version 5") {
		t.Fatalf("v5 snapshot: error %v, want unsupported format version", err)
	}
}

func TestTruncatedRejected(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	for _, cut := range []int{len(snap) / 2, len(snap) - 1} {
		_, err := Load(bytes.NewReader(snap[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: unexpected error %v", cut, err)
		}
	}
}

func TestCorruptedRejected(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	// Flip one byte deep in the body: must fail the checksum, never
	// parse successfully.
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x40
	_, err := Load(bytes.NewReader(corrupt))
	if err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
	if !strings.Contains(err.Error(), "checksum") {
		t.Fatalf("unexpected error: %v", err)
	}
}

func TestBadHeaderRejected(t *testing.T) {
	for _, src := range []string{
		"",
		"notanindex 1 0 aa\n",
		"eshidx 999 0 e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855\n",
		"eshidx one two three\n",
	} {
		if _, err := Load(strings.NewReader(src)); err == nil {
			t.Fatalf("header %q accepted", src)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	db := buildDB(t)
	path := t.TempDir() + "/corpus.eshidx"
	if err := SaveFile(path, db); err != nil {
		t.Fatal(err)
	}
	db2, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if db2.NumTargets() != db.NumTargets() {
		t.Fatalf("targets %d, want %d", db2.NumTargets(), db.NumTargets())
	}
}

// compiledCorpus is a C1-shaped corpus at half scale: every package of the
// test-bed compiled by two of the simulated toolchains (226 procedures).
func compiledCorpus(t *testing.T) []*asm.Proc {
	t.Helper()
	if testing.Short() {
		t.Skip("compiles and indexes a corpus")
	}
	var tcs []compile.Toolchain
	for _, name := range []string{"gcc-4.9", "clang-3.5"} {
		tc, ok := compile.ByName(name)
		if !ok {
			t.Fatalf("toolchain %s missing", name)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs})
	if err != nil {
		t.Fatal(err)
	}
	return procs
}

func fill(t *testing.T, db *core.DB, procs []*asm.Proc) *core.DB {
	t.Helper()
	for _, p := range procs {
		if err := db.AddTarget(p); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// novelProc is a small procedure whose strand no other i shares.
func novelProc(i int) string {
	return fmt.Sprintf(`proc novel_%d
	mov rax, rdi
	imul rax, %d
	add rax, 0x%x
	mov rcx, rax
	shr rcx, %d
	xor rax, rcx
	add rax, rsi
	mov rdx, rax
	and rdx, 0x%x
	add rax, rdx
	ret
endp`, i, 3+2*i, 0x11+i*7, 1+(i%7), 0xff+i)
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// hasRetrievalRecord reports whether a snapshot body carries a record
// tagged "retrieval" (the options line's retrieval= key is not one).
func hasRetrievalRecord(snap []byte) bool {
	return bytes.Contains(snap, []byte("\nretrieval "))
}

// compactInto compacts db, returning the snapshot the compaction persists.
func compactInto(t *testing.T, db *core.DB) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, _, err := db.Compact(func(ex *core.Export) error {
		_, err := SaveExportCtx(context.Background(), &buf, ex)
		return err
	}, nil); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("the compaction persisted nothing")
	}
	return buf.Bytes()
}

// TestSoundDatabaseCarriesNoProbeTable: the probe table is heuristic-tier
// state. A database at sound settings — the default deployment, or one
// whose -retrieval says probe — scans, so nothing it does may build a
// table or put one in a snapshot: not the save, not the load, not a
// stream of live adds long enough to outrun any delta bound, not the
// compaction. The hazard is derived state creeping back into the file or
// into a deployment that never reads it.
func TestSoundDatabaseCarriesNoProbeTable(t *testing.T) {
	procs := compiledCorpus(t)
	for _, retrieval := range []string{core.RetrievalScan, core.RetrievalProbe} {
		t.Run(retrieval, func(t *testing.T) {
			saved := saveBytes(t, fill(t, core.NewDB(core.Options{Retrieval: retrieval}), procs))
			db, err := Load(bytes.NewReader(saved))
			if err != nil {
				t.Fatal(err)
			}
			before := db.NumUniqueStrands()
			for i := 0; i < 300; i++ {
				if err := db.ApplyAdd(parse(t, novelProc(i))); err != nil {
					t.Fatal(err)
				}
			}
			if grew := db.NumUniqueStrands() - before; grew < 300 {
				t.Fatalf("test premise broken: 300 adds brought %d novel strands", grew)
			}
			if _, err := db.Query(procs[0]); err != nil {
				t.Fatal(err)
			}
			compacted := compactInto(t, db)
			if _, err := db.Query(procs[0]); err != nil {
				t.Fatal(err)
			}

			st := db.Stats()
			if st.Retrieval != retrieval || st.LSHMinContainment != 0 {
				t.Fatalf("test premise broken: retrieval %q at containment %g", st.Retrieval, st.LSHMinContainment)
			}
			if st.RetrievalTableBuckets != 0 || st.RetrievalProbes != 0 {
				t.Errorf("a sound database holds a probe table of %d buckets and probed it %d times", st.RetrievalTableBuckets, st.RetrievalProbes)
			}
			if builds := db.Metrics().Histogram("esh_retrieval_table_build_seconds", "", nil).Count(); builds != 0 {
				t.Errorf("esh_retrieval_table_build_seconds counts %d builds, want 0", builds)
			}
			if hasRetrievalRecord(saved) || hasRetrievalRecord(compacted) {
				t.Error("a snapshot carries a retrieval record")
			}
		})
	}
}

// TestProbeOverrideRebuildsTable: a probing database derives its table,
// so its answers cannot depend on how it was reached. The same corpus
// under the same heuristic-probe options, reached three ways — indexed
// by AddTarget; loaded from a snapshot a scan-mode database saved, with
// the options overridden at load; loaded from a snapshot of half of it,
// the rest added live and compacted — must retrieve identical candidate
// sets and return bit-identical rows and scores.
func TestProbeOverrideRebuildsTable(t *testing.T) {
	procs := compiledCorpus(t)
	probing := func(o core.Options) (core.Options, error) {
		o.Retrieval, o.LSHMinContainment = core.RetrievalProbe, sketch.SuggestedMinContainment
		return o, nil
	}
	load := func(snap []byte) *core.DB {
		t.Helper()
		if hasRetrievalRecord(snap) {
			t.Fatal("a snapshot carries a retrieval record")
		}
		db, _, err := LoadInfoCtx(context.Background(), bytes.NewReader(snap), probing)
		if err != nil {
			t.Fatal(err)
		}
		if st := db.Stats(); st.Retrieval != core.RetrievalProbe || st.RetrievalTableBuckets == 0 {
			t.Fatalf("after override: retrieval %q with %d table buckets, want a resident probe table", st.Retrieval, st.RetrievalTableBuckets)
		}
		return db
	}

	opts, _ := probing(core.Options{})
	indexed := fill(t, core.NewDB(opts), procs)
	loaded := load(saveBytes(t, fill(t, core.NewDB(core.Options{}), procs)))
	grown := load(saveBytes(t, fill(t, core.NewDB(core.Options{}), procs[:len(procs)/2])))
	for _, p := range procs[len(procs)/2:] {
		if err := grown.ApplyAdd(p); err != nil {
			t.Fatal(err)
		}
	}
	if hasRetrievalRecord(compactInto(t, grown)) {
		t.Fatal("the compaction's snapshot carries a retrieval record")
	}

	others := map[string]*core.DB{"loaded": loaded, "loaded, grown and compacted": grown}
	qtc, _ := compile.ByName("clang-3.5")
	for _, v := range corpus.Vulns()[:3] {
		q, err := corpus.CompileVuln(v, qtc, false)
		if err != nil {
			t.Fatal(err)
		}
		want, err := indexed.PartialQueryCtx(context.Background(), q)
		if err != nil {
			t.Fatal(err)
		}
		a, err := indexed.Query(q)
		if err != nil {
			t.Fatal(err)
		}
		for name, db := range others {
			got, err := db.PartialQueryCtx(context.Background(), q)
			if err != nil {
				t.Fatal(err)
			}
			// A column outside the candidate set reads zero, so equal
			// rows are equal candidate sets with equal VCPs.
			for i := range want.Rows {
				if !slices.EqualFunc(got.Rows[i], want.Rows[i], sameBits) {
					t.Fatalf("%s, query %s: row %d differs from the indexed database's", name, v.Alias, i)
				}
			}
			b, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			compareReports(t, "indexed vs "+name, a, b)
		}
	}
	want := indexed.Stats()
	if want.RetrievalProbes == 0 || want.RetrievalCandidates >= want.RetrievalSoundCandidates {
		t.Fatalf("test premise broken: %d probes retrieved %d of %d sound candidates; the heuristic probe is to drop some",
			want.RetrievalProbes, want.RetrievalCandidates, want.RetrievalSoundCandidates)
	}
	for name, db := range others {
		if got := db.Stats(); got.RetrievalCandidates != want.RetrievalCandidates || got.RetrievalTableBuckets != want.RetrievalTableBuckets {
			t.Errorf("%s: %d candidates from a table of %d buckets, the indexed database %d from %d", name,
				got.RetrievalCandidates, got.RetrievalTableBuckets, want.RetrievalCandidates, want.RetrievalTableBuckets)
		}
	}
}

// compareQueries runs the shared query set against both databases and
// demands identical rankings and scores.
func compareQueries(t *testing.T, db, db2 *core.DB) {
	t.Helper()
	for _, qsrc := range []string{gccStyle, memStyle} {
		r1, err := db.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		r2, err := db2.Query(parse(t, qsrc))
		if err != nil {
			t.Fatal(err)
		}
		compareReports(t, "saved vs loaded", r1, r2)
	}
}

// compareReports demands identical rankings and scores.
func compareReports(t *testing.T, label string, r1, r2 *core.Report) {
	t.Helper()
	if len(r1.Results) != len(r2.Results) {
		t.Fatalf("%s, query %s: result count %d vs %d", label, r1.QueryName, len(r1.Results), len(r2.Results))
	}
	for i := range r1.Results {
		a, b := r1.Results[i], r2.Results[i]
		if a.Target.Name != b.Target.Name || a.GES != b.GES || a.SLOG != b.SLOG {
			t.Fatalf("%s, query %s, rank %d: (%s %v %v) vs (%s %v %v)", label, r1.QueryName,
				i, a.Target.Name, a.GES, a.SLOG, b.Target.Name, b.GES, b.SLOG)
		}
	}
}
