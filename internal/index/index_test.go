package index

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
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
			if a.GES != b.GES || a.SLOG != b.SLOG || a.SVCP != b.SVCP {
				t.Fatalf("rank %d (%s): scores (%v,%v,%v) vs (%v,%v,%v)",
					i, a.Target.Name, a.GES, a.SLOG, a.SVCP, b.GES, b.SLOG, b.SVCP)
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

// TestRetiredOptionKeys: snapshots written while workers=, kernel= and
// gammabatch= were still option keys keep loading (unknown keys are
// ignored), answer identically, and re-save without them.
func TestRetiredOptionKeys(t *testing.T) {
	db := buildDB(t)
	snap := saveBytes(t, db)
	old := rewrite(t, snap, Version, func(ln string) string {
		if strings.HasPrefix(ln, "options ") {
			ln += " workers=1 kernel=scalar gammabatch=16"
		}
		return ln
	})
	db2, err := Load(bytes.NewReader(old))
	if err != nil {
		t.Fatalf("load snapshot with retired keys: %v", err)
	}
	compareQueries(t, db, db2)
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
		{"prefilter=off", "prefilter=lhs", `line 1: bad option value "prefilter=lhs"`},
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

// TestOldVersionRefused: formats before 5 are no longer decoded.
func TestOldVersionRefused(t *testing.T) {
	old := rewrite(t, saveBytes(t, buildDB(t)), Version-1, func(ln string) string { return ln })
	_, err := Load(bytes.NewReader(old))
	if err == nil || !strings.Contains(err.Error(), "unsupported format version 4") {
		t.Fatalf("v4 snapshot: error %v, want unsupported format version", err)
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

// buildProbeDB is buildDB in probe retrieval mode, which makes Export
// carry the built probe table so the snapshot exercises the retrieval
// section.
func buildProbeDB(t *testing.T) *core.DB {
	t.Helper()
	db := core.NewDB(core.Options{VCP: vcp.Config{MinVars: 3}, Retrieval: core.RetrievalProbe})
	for _, src := range []string{iccStyle, memStyle} {
		if err := db.AddTarget(parse(t, src)); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestRetrievalTableRoundTrip checks the retrieval section:
// a probe-mode save persists the table, a load adopts it byte-for-byte
// (same slab checksum as the builder produced), and the re-saved
// snapshot is a fixed point.
func TestRetrievalTableRoundTrip(t *testing.T) {
	db := buildProbeDB(t)
	want := db.RetrievalIndex().Checksum()
	snap := saveBytes(t, db)

	ex, err := LoadExport(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Retrieval == nil {
		t.Fatal("probe-mode snapshot did not persist the retrieval table")
	}
	if ex.Retrieval.N != len(ex.Strands) {
		t.Fatalf("persisted table covers %d strands, snapshot has %d", ex.Retrieval.N, len(ex.Strands))
	}
	if ex.Retrieval.Checksum != want {
		t.Fatalf("persisted table checksum %016x, builder produced %016x", ex.Retrieval.Checksum, want)
	}

	db2, err := Load(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.RetrievalIndex().Checksum(); got != want {
		t.Fatalf("adopted table checksum %016x, want %016x", got, want)
	}
	if snap2 := saveBytes(t, db2); !bytes.Equal(snap, snap2) {
		t.Fatal("probe-mode snapshot is not a save/load fixed point")
	}
	compareQueries(t, db, db2)
}

// TestProbeOverrideRebuildsTable: a snapshot saved in scan mode carries
// no probe table; loading it with retrieval overridden to probe rebuilds
// one identical to the table a probe-mode save persists, so probe-mode
// answers do not depend on how the snapshot was written.
func TestProbeOverrideRebuildsTable(t *testing.T) {
	probeDB := buildProbeDB(t)
	want := probeDB.RetrievalIndex().Checksum()

	snap := saveBytes(t, buildDB(t))
	ex, err := LoadExport(bytes.NewReader(snap))
	if err != nil {
		t.Fatal(err)
	}
	if ex.Retrieval != nil || ex.Opts.Retrieval != core.RetrievalScan {
		t.Fatalf("scan-mode snapshot carries a probe table or mode %q", ex.Opts.Retrieval)
	}
	db2, _, err := LoadInfoCtx(context.Background(), bytes.NewReader(snap), func(o core.Options) (core.Options, error) {
		o.Retrieval = core.RetrievalProbe
		return o, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := db2.Stats(); got.Retrieval != core.RetrievalProbe || got.RetrievalTableBuckets == 0 {
		t.Fatalf("after override: retrieval %q with %d table buckets, want a resident probe table", got.Retrieval, got.RetrievalTableBuckets)
	}
	if got := db2.RetrievalIndex().Checksum(); got != want {
		t.Fatalf("rebuilt table checksum %016x, persisted-table build %016x", got, want)
	}
	compareQueries(t, probeDB, db2)
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
		if len(r1.Results) != len(r2.Results) {
			t.Fatalf("result count %d vs %d", len(r1.Results), len(r2.Results))
		}
		for i := range r1.Results {
			a, b := r1.Results[i], r2.Results[i]
			if a.Target.Name != b.Target.Name || a.GES != b.GES || a.SLOG != b.SLOG || a.SVCP != b.SVCP {
				t.Fatalf("rank %d: (%s %v %v %v) vs (%s %v %v %v)",
					i, a.Target.Name, a.GES, a.SLOG, a.SVCP, b.Target.Name, b.GES, b.SLOG, b.SVCP)
			}
		}
	}
}
