package index

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"regexp"
	"runtime"
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

// Save and Load are the in-memory round trip the tests drive; the
// binaries go through files (SaveExportFile, LoadFileInfoCtx).
func Save(w io.Writer, db *core.DB) error {
	_, err := SaveExportCtx(context.Background(), w, db.Export())
	return err
}

func Load(r io.Reader) (*core.DB, error) {
	db, _, err := LoadInfoCtx(context.Background(), r, nil)
	return db, err
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
// gammabatch=, retrmaxdelta=, cachepairs=, prefilter=, retrieval=,
// lshbands= or lshrows=, option keys of earlier builds, keep loading
// (unknown keys are ignored, whatever their value), answer identically,
// and re-save without them; so does lshmincont=0, the retired heuristic
// tier's off setting (above 0 it is refused: TestBadBodyRejected). The
// row cache's bound is no longer the file's to set: a database loaded
// from cachepairs=7 serves under the constant.
// Nor is the banding: a snapshot saved at 12×6 carries the same 72-value
// signatures, cut into other bands, and they are adopted as they are.
func TestRetiredOptionKeys(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	sketchRecord := fmt.Sprintf("sketch %d %d %d", db.NumUniqueStrands(), sketch.DefaultBands, sketch.DefaultRows)
	if !bytes.Contains(snap, []byte(sketchRecord)) {
		t.Fatalf("snapshot has no %q record", sketchRecord)
	}
	for _, tc := range []struct{ keys, sketch string }{
		{"workers=1 kernel=scalar gammabatch=16 retrmaxdelta=64 cachepairs=7 prefilter=lhs", sketchRecord},
		{"retrieval=probe lshbands=12 lshrows=6", fmt.Sprintf("sketch %d 12 6", db.NumUniqueStrands())},
		{"lshmincont=0", sketchRecord},
	} {
		old := rewrite(t, snap, Version, func(ln string) string {
			if strings.HasPrefix(ln, "options ") {
				ln += " " + tc.keys
			}
			return strings.Replace(ln, sketchRecord, tc.sketch, 1)
		})
		db2, err := Load(bytes.NewReader(old))
		if err != nil {
			t.Fatalf("load snapshot with %s: %v", tc.keys, err)
		}
		compareQueries(t, db, db2)
		if c := db2.Stats().VCPCache; c.Budget != 1<<21 || c.Held == 0 {
			t.Fatalf("row cache after serving a snapshot that says %s: %+v, want rows held under the fixed 2^21", tc.keys, c)
		}
		if !bytes.Equal(saveBytes(t, db2), snap) {
			t.Fatalf("re-saved snapshot with %s differs from one that never had the retired keys", tc.keys)
		}
	}
}

// TestBadBodyRejected: a float option the engine cannot score with (a
// NaN or an infinity, which would turn every reply into one nothing can
// encode) must not load, nor a VCP setting that silently changes every
// answer (a size ratio outside [0, 1] prunes every pair unverified), a
// negative count or a count above its ceiling; a snapshot without per-target multiplicities
// must not be read as all-ones, and a section count no body could hold
// must be refused before anything is allocated for it; like a malformed
// value, each fails with its line.
func TestBadBodyRejected(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	lineError := regexp.MustCompile(`^index: line \d+: `)
	for _, tc := range []struct{ from, to, want string }{
		{"sigmoidk=0", "sigmoidk=NaN", `line 1: bad option value "sigmoidk=NaN"`},
		{"sigmoidk=0", "sigmoidk=+Inf", `line 1: bad option value "sigmoidk=+Inf"`},
		{"sigmoidk=0", "sigmoidk=-1", `line 1: bad option value "sigmoidk=-1"`},
		{"vcpmaxcorr=0", "vcpmaxcorr=0 lshmincont=x", `line 1: bad option value "lshmincont=x"`},
		{"vcpmaxcorr=0", "vcpmaxcorr=0 lshmincont=0.45", `line 1: bad option value "lshmincont=0.45": the heuristic candidate tier is retired`},
		{"vcpmaxcorr=0", "vcpmaxcorr=0 lshmincont=NaN", `line 1: bad option value "lshmincont=NaN"`},
		{"vcpmaxcorr=0", "vcpmaxcorr=0 lshmincont=1.5", `line 1: bad option value "lshmincont=1.5"`},
		{"vcpsizeratio=0 ", "vcpsizeratio=+Inf ", `line 1: bad option value "vcpsizeratio=+Inf"`},
		{"vcpsizeratio=0 ", "vcpsizeratio=2 ", `line 1: bad option value "vcpsizeratio=2"`},
		{"vcpsizeratio=0 ", "vcpsizeratio=NaN ", `line 1: bad option value "vcpsizeratio=NaN"`},
		{"vcpsizeratio=0 ", "vcpsizeratio=-0.5 ", `line 1: bad option value "vcpsizeratio=-0.5"`},
		{"pathlen=0", "pathlen=-2", `line 1: bad option value "pathlen=-2"`},
		{"pathmaxblocks=0", "pathmaxblocks=-1", `line 1: bad option value "pathmaxblocks=-1"`},
		{"vcpsamples=0", "vcpsamples=-1", `line 1: bad option value "vcpsamples=-1"`},
		{"vcpsamples=0", fmt.Sprintf("vcpsamples=%d", core.MaxVCPSamples+1), `line 1: bad option value "vcpsamples=1025"`},
		{"vcpminvars=3", "vcpminvars=-3", `line 1: bad option value "vcpminvars=-3"`},
		{"vcpmaxcorr=0", "vcpmaxcorr=-1", `line 1: bad option value "vcpmaxcorr=-1"`},
		{"vcpmaxcorr=0", fmt.Sprintf("vcpmaxcorr=%d", core.MaxVCPCorrespondences+1), `line 1: bad option value "vcpmaxcorr=65537"`},
		{"mults 2", "mults 0", "mults section has 0 records for 2 targets"},
		{fmt.Sprintf("strands %d", db.NumUniqueStrands()), "strands 1000000000000000", "line 4: strand count 1000000000000000 exceeds the"},
		{"targets 2", "targets 1000000000000000", "target count 1000000000000000 exceeds the"},
	} {
		if !bytes.Contains(snap, []byte(tc.from)) {
			t.Fatalf("%s: snapshot has no %q to corrupt", tc.to, tc.from)
		}
		bad := rewrite(t, snap, Version, func(ln string) string { return strings.Replace(ln, tc.from, tc.to, 1) })
		_, err := Load(bytes.NewReader(bad))
		if err == nil || !strings.Contains(err.Error(), tc.want) || !lineError.MatchString(err.Error()) {
			t.Errorf("%s: error %v, want %q naming its line", tc.to, err, tc.want)
		}
	}
	// The bounds themselves load.
	edge := fmt.Sprintf("vcpsamples=%d vcpminvars=3 vcpsizeratio=1 vcpmaxcorr=%d", core.MaxVCPSamples, core.MaxVCPCorrespondences)
	ok := rewrite(t, snap, Version, func(ln string) string {
		return strings.Replace(ln, "vcpsamples=0 vcpminvars=3 vcpsizeratio=0 vcpmaxcorr=0", edge, 1)
	})
	if db, err := Load(bytes.NewReader(ok)); err != nil || db.Options().VCP.MaxCorrespondences != core.MaxVCPCorrespondences {
		t.Errorf("%s: %v", edge, err)
	}
}

// TestIllTypedStrandRefused: the batched kernel is the only evaluator, so
// a snapshot carrying a strand it cannot type — here a statement declared
// an integer that holds a memory, behind a valid checksum — is refused at
// load, naming the strand and the statement.
func TestIllTypedStrandRefused(t *testing.T) {
	snap := saveBytes(t, buildDB(t))
	const from, to = `a 0 "rax_1" "rsi_0"`, `a 0 "rax_1" "mem_0"`
	if !bytes.Contains(snap, []byte(from)) {
		t.Fatalf("snapshot has no %q to retype", from)
	}
	bad := rewrite(t, snap, Version, func(ln string) string { return strings.Replace(ln, from, to, 1) })
	_, err := Load(bytes.NewReader(bad))
	want := "import strand 1: smt: statement 3 (rax_1): declared bv64 but holds a mem value"
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("load: error %v, want one containing %q", err, want)
	}
}

// TestOldVersionRefused: formats before 6 are no longer decoded — v5,
// the last to carry a persisted probe table, included.
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
		if a.Target.Name != b.Target.Name || !sameBits(a.GES, b.GES) || !sameBits(a.SLOG, b.SLOG) {
			t.Fatalf("%s, query %s, rank %d: (%s %v %v) vs (%s %v %v)", label, r1.QueryName,
				i, a.Target.Name, a.GES, a.SLOG, b.Target.Name, b.GES, b.SLOG)
		}
	}
}
