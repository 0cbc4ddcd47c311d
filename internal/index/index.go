// Package index persists an indexed core.DB to disk and reloads it, so
// a corpus is indexed once (eshcorpus -save) and served many times
// (eshd, esh -load) without re-running the disassemble→CFG→lift→strand
// pipeline.
//
// Snapshot layout: a single header line
//
//	eshidx <version> <body-length> <sha256-of-body>\n
//
// followed by the body — a line-oriented text encoding of the engine
// options, the unique strands (canonical IVL text, multiplicity), and
// the targets (provenance plus strand index lists). The header makes
// corruption detectable before any parsing: a truncated file fails the
// length check and a bit flip fails the checksum. Verifier preparations
// are recomputed at load time (they are deterministic functions of the
// strands), which keeps snapshots small and format-stable.
package index

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/ivl"
	"repro/internal/sketch"
	"repro/internal/strand"
	"repro/internal/telemetry"
)

// Magic identifies snapshot files; Version is the one format read and
// written. Besides the options, strands and targets it carries the
// shard-identity record, the wal record (compaction generation +
// journal high-water mark, what lets a restarting daemon skip
// already-folded journal records), per-strand MinHash signatures,
// and per-target strand multiplicities (what lets a corpus split into
// shards whose local strand counts sum exactly to the union's). The
// banded-LSH probe table is derived state and not in the file: a
// probing database builds it from the signatures when it loads.
// Versions 1–5 are refused: no fleet holds them.
const (
	Magic   = "eshidx"
	Version = 6
)

// Override adjusts the options a snapshot was saved with before the
// engine is built from them (core.FromExport) — how a binary's
// explicitly-set flags reach a loaded database. Nil keeps the
// snapshot's options.
type Override func(core.Options) (core.Options, error)

// Info identifies one snapshot: the format version, body size, body
// checksum, and the shard identity baked into it. The checksum is what
// a gateway compares against its manifest to refuse serving a query
// across a mixed-version shard fleet.
type Info struct {
	Version  int
	BodyLen  int
	Checksum string // hex sha256 of the body
	Shard    core.ShardInfo
}

// Snapshot I/O metrics live in the process-wide default registry (the
// package has no natural instance to hang them on) and are exposed by
// eshd's /metrics alongside the engine and server registries.
var (
	mLoadSeconds = telemetry.Default().Histogram("esh_index_load_seconds",
		"Wall time to load and verify one index snapshot.", nil)
	mSaveSeconds = telemetry.Default().Histogram("esh_index_save_seconds",
		"Wall time to encode and write one index snapshot.", nil)
	mSnapshotBytes = telemetry.Default().Gauge("esh_index_snapshot_bytes",
		"Body size of the most recently loaded or saved snapshot.")
)

// Save writes a snapshot of the database to w.
func Save(w io.Writer, db *core.DB) error {
	_, err := SaveExportCtx(context.Background(), w, db.Export())
	return err
}

// SaveExportCtx writes a snapshot of already-exported state — the shard
// splitter's path, which never materializes a prepared DB per shard —
// recording an "index.save" telemetry span under the one carried by ctx (if
// any). It returns the written snapshot's identity (checksum, size, shard)
// for manifest construction.
func SaveExportCtx(ctx context.Context, w io.Writer, ex *core.Export) (Info, error) {
	_, sp := telemetry.StartSpan(ctx, "index.save")
	defer func() { mSaveSeconds.Observe(sp.End().Seconds()) }()
	body := encodeBody(ex)
	sp.SetAttr("bytes", float64(len(body)))
	mSnapshotBytes.Set(float64(len(body)))
	sum := sha256.Sum256(body)
	info := Info{Version: Version, BodyLen: len(body), Checksum: hex.EncodeToString(sum[:]), Shard: ex.Shard}
	if _, err := fmt.Fprintf(w, "%s %d %d %s\n", Magic, Version, len(body), info.Checksum); err != nil {
		return Info{}, fmt.Errorf("index: write header: %w", err)
	}
	if _, err := w.Write(body); err != nil {
		return Info{}, fmt.Errorf("index: write body: %w", err)
	}
	return info, nil
}

// SaveFile writes a snapshot of the database to path; see SaveExportFile.
func SaveFile(path string, db *core.DB) error {
	_, err := SaveExportFile(path, db.Export())
	return err
}

// SaveExportFile writes a snapshot of already-exported state atomically —
// to a temp file in the target directory, then rename — returning the
// snapshot identity.
func SaveExportFile(path string, ex *core.Export) (Info, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".eshidx-*")
	if err != nil {
		return Info{}, fmt.Errorf("index: %w", err)
	}
	defer os.Remove(tmp.Name())
	bw := bufio.NewWriterSize(tmp, 1<<20)
	info, err := SaveExportCtx(context.Background(), bw, ex)
	if err != nil {
		tmp.Close()
		return Info{}, err
	}
	if err := bw.Flush(); err != nil {
		tmp.Close()
		return Info{}, fmt.Errorf("index: flush %s: %w", path, err)
	}
	if err := tmp.Close(); err != nil {
		return Info{}, fmt.Errorf("index: close %s: %w", path, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return Info{}, fmt.Errorf("index: %w", err)
	}
	return info, nil
}

// Load reads a snapshot and rebuilds a queryable database, re-preparing
// every strand. The rebuilt DB answers Query identically to the one that
// was saved.
func Load(r io.Reader) (*core.DB, error) {
	db, _, err := LoadInfoCtx(context.Background(), r, nil)
	return db, err
}

// LoadInfoCtx is Load with the options override applied between decode
// and engine construction, returning the snapshot's identity alongside
// the rebuilt database. It records an "index.load" telemetry span (with
// decode and prepare child spans) under the one carried by ctx, if any.
func LoadInfoCtx(ctx context.Context, r io.Reader, override Override) (*core.DB, Info, error) {
	lctx, sp := telemetry.StartSpan(ctx, "index.load")
	defer func() { mLoadSeconds.Observe(sp.End().Seconds()) }()

	_, spDec := telemetry.StartSpan(lctx, "decode")
	ex, info, err := LoadExportInfo(r)
	spDec.End()
	if err != nil {
		return nil, Info{}, err
	}
	sp.SetAttr("strands", float64(len(ex.Strands)))
	sp.SetAttr("targets", float64(len(ex.Targets)))
	if override != nil {
		if ex.Opts, err = override(ex.Opts); err != nil {
			return nil, Info{}, fmt.Errorf("index: %w", err)
		}
	}

	// FromExport re-prepares every strand for the verifier — usually the
	// dominant cost of a load, hence its own child span.
	_, spPrep := telemetry.StartSpan(lctx, "prepare")
	db, err := core.FromExport(ex)
	spPrep.End()
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: %w", err)
	}
	return db, info, nil
}

// LoadFile loads a snapshot from path.
func LoadFile(path string) (*core.DB, error) {
	return LoadFileCtx(context.Background(), path)
}

// LoadFileCtx loads a snapshot from path with LoadInfoCtx tracing.
func LoadFileCtx(ctx context.Context, path string) (*core.DB, error) {
	db, _, err := LoadFileInfoCtx(ctx, path, nil)
	return db, err
}

// LoadFileInfoCtx loads a snapshot from path under the options override,
// returning its identity (version, checksum, shard) for serving-side
// exposition.
func LoadFileInfoCtx(ctx context.Context, path string, override Override) (*core.DB, Info, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: %w", err)
	}
	defer f.Close()
	db, info, err := LoadInfoCtx(ctx, bufio.NewReaderSize(f, 1<<20), override)
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: load %s: %w", path, err)
	}
	return db, info, nil
}

// LoadExportInfo reads and verifies a snapshot, returning the decoded state
// without preparing strands, and the snapshot identity.
func LoadExportInfo(r io.Reader) (*core.Export, Info, error) {
	br := bufio.NewReader(r)
	header, err := br.ReadString('\n')
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: read header: %w", err)
	}
	var magic, sumHex string
	var version, bodyLen int
	if _, err := fmt.Sscanf(strings.TrimSuffix(header, "\n"), "%s %d %d %s", &magic, &version, &bodyLen, &sumHex); err != nil {
		return nil, Info{}, fmt.Errorf("index: malformed header %q", strings.TrimSpace(header))
	}
	if magic != Magic {
		return nil, Info{}, fmt.Errorf("index: not a snapshot (magic %q)", magic)
	}
	if version != Version {
		return nil, Info{}, fmt.Errorf("index: unsupported format version %d (have %d)", version, Version)
	}
	body, err := io.ReadAll(br)
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: read body: %w", err)
	}
	if len(body) != bodyLen {
		return nil, Info{}, fmt.Errorf("index: truncated snapshot: body is %d bytes, header says %d", len(body), bodyLen)
	}
	sum := sha256.Sum256(body)
	if hex.EncodeToString(sum[:]) != sumHex {
		return nil, Info{}, fmt.Errorf("index: checksum mismatch: snapshot is corrupted")
	}
	mSnapshotBytes.Set(float64(len(body)))
	ex, err := decodeBody(body)
	if err != nil {
		return nil, Info{}, err
	}
	return ex, Info{Version: version, BodyLen: bodyLen, Checksum: sumHex, Shard: ex.Shard}, nil
}

// ---- body encoding ----

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

func typeCode(t ivl.Type) int {
	if t == ivl.Mem {
		return 1
	}
	return 0
}

func codeType(c int) (ivl.Type, error) {
	switch c {
	case 0:
		return ivl.Int, nil
	case 1:
		return ivl.Mem, nil
	}
	return ivl.Int, fmt.Errorf("unknown type code %d", c)
}

func encodeBody(ex *core.Export) []byte {
	var b bytes.Buffer
	o := ex.Opts
	// Options.Workers is a deployment setting, not corpus state: the
	// loading process picks it.
	fmt.Fprintf(&b, "options sigmoidk=%s pathlen=%d pathmaxblocks=%d vcpsamples=%d vcpminvars=%d vcpsizeratio=%s vcpmaxcorr=%d lshbands=%d lshrows=%d lshmincont=%s retrieval=%s\n",
		ftoa(o.SigmoidK), o.PathLen, o.PathMaxBlocks,
		o.VCP.Samples, o.VCP.MinVars, ftoa(o.VCP.SizeRatio), o.VCP.MaxCorrespondences,
		o.LSHBands, o.LSHRows, ftoa(o.LSHMinContainment), o.Retrieval)

	// Shard identity. All zero/empty for an unsharded corpus.
	fmt.Fprintf(&b, "shard %d %d %s\n", ex.Shard.ID, ex.Shard.Count, strconv.Quote(ex.Shard.Generation))

	// Write-path watermark: the compaction generation and the journal
	// sequence already folded into this snapshot.
	fmt.Fprintf(&b, "wal %d %d\n", ex.Generation, ex.WALSeq)

	fmt.Fprintf(&b, "strands %d\n", len(ex.Strands))
	for _, es := range ex.Strands {
		s := es.S
		fmt.Fprintf(&b, "s %d %d %d %d %s\n", es.Count, s.BlockIndex, len(s.Inputs), len(s.Stmts), strconv.Quote(s.ProcName))
		for _, in := range s.Inputs {
			fmt.Fprintf(&b, "i %d %s\n", typeCode(in.Type), strconv.Quote(in.Name))
		}
		for _, st := range s.Stmts {
			fmt.Fprintf(&b, "a %d %s %s\n", typeCode(st.Dst.Type), strconv.Quote(st.Dst.Name), strconv.Quote(st.Rhs.String()))
		}
	}

	fmt.Fprintf(&b, "targets %d\n", len(ex.Targets))
	for _, t := range ex.Targets {
		patched := 0
		if t.Source.Patched {
			patched = 1
		}
		fmt.Fprintf(&b, "t %d %d %d %s %s %s %s %s\n",
			t.NumBlocks, t.NumStrands, patched,
			strconv.Quote(t.Name), strconv.Quote(t.Source.Package), strconv.Quote(t.Source.SourceSym),
			strconv.Quote(t.Source.Toolchain), strconv.Quote(t.Source.OptLevel))
		fmt.Fprintf(&b, "x %d", len(t.StrandIdx))
		for _, idx := range t.StrandIdx {
			fmt.Fprintf(&b, " %d", idx)
		}
		b.WriteByte('\n')
	}

	// Sketch section: per-strand MinHash signatures
	// so a load can rebuild the sketch index without recomputing
	// features. Written empty (count 0) when any signature is missing
	// or inconsistent; the loader recomputes in that case.
	cfg := sketch.Config{Bands: ex.Opts.LSHBands, Rows: ex.Opts.LSHRows}.Normalized()
	n := len(ex.Strands)
	for _, es := range ex.Strands {
		if len(es.Sig) != cfg.Len() {
			n = 0
			break
		}
	}
	fmt.Fprintf(&b, "sketch %d %d %d\n", n, cfg.Bands, cfg.Rows)
	for i := 0; i < n; i++ {
		b.WriteString("g")
		for _, v := range ex.Strands[i].Sig {
			fmt.Fprintf(&b, " %d", v)
		}
		b.WriteByte('\n')
	}

	// Multiplicity section: per-target strand multiplicities, which sum
	// to the per-strand counts (core.FromExport checks it on load).
	fmt.Fprintf(&b, "mults %d\n", len(ex.Targets))
	for _, t := range ex.Targets {
		fmt.Fprintf(&b, "m %d", len(t.StrandMult))
		for _, m := range t.StrandMult {
			fmt.Fprintf(&b, " %d", m)
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// ---- body decoding ----

type decoder struct {
	lines []string
	pos   int // current line number (1-based for errors)
}

func (d *decoder) next() (string, error) {
	if d.pos >= len(d.lines) {
		return "", fmt.Errorf("index: unexpected end of snapshot at line %d", d.pos+1)
	}
	d.pos++
	return d.lines[d.pos-1], nil
}

func (d *decoder) errf(format string, args ...any) error {
	return fmt.Errorf("index: line %d: %s", d.pos, fmt.Sprintf(format, args...))
}

// fields splits a body line into tokens, decoding %q-quoted tokens
// (which may contain spaces).
func (d *decoder) fields(line string) ([]string, error) {
	var out []string
	for {
		line = strings.TrimLeft(line, " ")
		if line == "" {
			return out, nil
		}
		if line[0] == '"' {
			q, rest, err := quotedPrefix(line)
			if err != nil {
				return nil, d.errf("bad quoted token: %v", err)
			}
			u, err := strconv.Unquote(q)
			if err != nil {
				return nil, d.errf("bad quoted token %s: %v", q, err)
			}
			out = append(out, u)
			line = rest
			continue
		}
		i := strings.IndexByte(line, ' ')
		if i < 0 {
			out = append(out, line)
			return out, nil
		}
		out = append(out, line[:i])
		line = line[i:]
	}
}

func quotedPrefix(s string) (quoted, rest string, err error) {
	q, err := strconv.QuotedPrefix(s)
	if err != nil {
		return "", "", err
	}
	return q, s[len(q):], nil
}

func (d *decoder) ints(toks []string) ([]int, error) {
	out := make([]int, len(toks))
	for i, t := range toks {
		n, err := strconv.Atoi(t)
		if err != nil {
			return nil, d.errf("bad integer %q", t)
		}
		out[i] = n
	}
	return out, nil
}

// record reads the next line, checks its tag, and returns its fields
// (tag stripped).
func (d *decoder) record(tag string, minFields int) ([]string, error) {
	line, err := d.next()
	if err != nil {
		return nil, err
	}
	toks, err := d.fields(line)
	if err != nil {
		return nil, err
	}
	if len(toks) == 0 || toks[0] != tag {
		return nil, d.errf("expected %q record, got %q", tag, line)
	}
	if len(toks)-1 < minFields {
		return nil, d.errf("%q record has %d fields, want at least %d", tag, len(toks)-1, minFields)
	}
	return toks[1:], nil
}

func decodeBody(body []byte) (*core.Export, error) {
	lines := strings.Split(string(body), "\n")
	if n := len(lines); n > 0 && lines[n-1] == "" {
		lines = lines[:n-1]
	}
	d := &decoder{lines: lines}
	ex := &core.Export{}

	for _, section := range []func(*core.Export) error{
		d.decodeOptions, d.decodeShard, d.decodeWAL, d.decodeStrands,
		d.decodeTargets, d.decodeSketch, d.decodeMults,
	} {
		if err := section(ex); err != nil {
			return nil, err
		}
	}
	if d.pos != len(d.lines) {
		return nil, d.errf("trailing data after final section")
	}
	return ex, nil
}

// decodeShard reads the shard identity record.
func (d *decoder) decodeShard(ex *core.Export) error {
	toks, err := d.record("shard", 3)
	if err != nil {
		return err
	}
	nums, err := d.ints(toks[:2])
	if err != nil {
		return err
	}
	ex.Shard = core.ShardInfo{ID: nums[0], Count: nums[1], Generation: toks[2]}
	if ex.Shard.Count < 0 {
		return d.errf("negative shard count %d", ex.Shard.Count)
	}
	if ex.Shard.Sharded() && (ex.Shard.ID < 0 || ex.Shard.ID >= ex.Shard.Count) {
		return d.errf("shard id %d out of range [0,%d)", ex.Shard.ID, ex.Shard.Count)
	}
	return nil
}

// decodeWAL reads the write-path watermark record: the
// compaction generation and the journal sequence number already folded
// into the snapshot (startup replay skips records at or below it).
func (d *decoder) decodeWAL(ex *core.Export) error {
	toks, err := d.record("wal", 2)
	if err != nil {
		return err
	}
	gen, err := strconv.ParseUint(toks[0], 10, 64)
	if err != nil {
		return d.errf("bad wal generation %q", toks[0])
	}
	seq, err := strconv.ParseUint(toks[1], 10, 64)
	if err != nil {
		return d.errf("bad wal sequence %q", toks[1])
	}
	ex.Generation, ex.WALSeq = gen, seq
	return nil
}

// decodeMults reads the multiplicity section: one record per target.
func (d *decoder) decodeMults(ex *core.Export) error {
	toks, err := d.record("mults", 1)
	if err != nil {
		return err
	}
	nums, err := d.ints(toks[:1])
	if err != nil {
		return err
	}
	n := nums[0]
	if n != len(ex.Targets) {
		return d.errf("mults section has %d records for %d targets", n, len(ex.Targets))
	}
	for i := 0; i < n; i++ {
		mtoks, err := d.record("m", 1)
		if err != nil {
			return err
		}
		vals, err := d.ints(mtoks)
		if err != nil {
			return err
		}
		if vals[0] != len(vals)-1 {
			return d.errf("target %d: multiplicity list has %d entries, header says %d", i, len(vals)-1, vals[0])
		}
		if len(vals)-1 != len(ex.Targets[i].StrandIdx) {
			return d.errf("target %d: %d multiplicities for %d strand indices", i, len(vals)-1, len(ex.Targets[i].StrandIdx))
		}
		ex.Targets[i].StrandMult = vals[1:]
	}
	return nil
}

// decodeSketch reads the sketch section. A zero strand count
// means signatures were not persisted; core.FromExport recomputes them.
func (d *decoder) decodeSketch(ex *core.Export) error {
	toks, err := d.record("sketch", 3)
	if err != nil {
		return err
	}
	nums, err := d.ints(toks[:3])
	if err != nil {
		return err
	}
	n, bands, rows := nums[0], nums[1], nums[2]
	if n != 0 && n != len(ex.Strands) {
		return d.errf("sketch section has %d signatures for %d strands", n, len(ex.Strands))
	}
	if bands <= 0 || rows <= 0 {
		return d.errf("bad sketch geometry %dx%d", bands, rows)
	}
	want := bands * rows
	for i := 0; i < n; i++ {
		gtoks, err := d.record("g", want)
		if err != nil {
			return err
		}
		if len(gtoks) != want {
			return d.errf("signature %d has %d values, want %d", i, len(gtoks), want)
		}
		sig := make(sketch.Signature, want)
		for k, t := range gtoks {
			v, err := strconv.ParseUint(t, 10, 32)
			if err != nil {
				return d.errf("bad signature value %q", t)
			}
			sig[k] = uint32(v)
		}
		ex.Strands[i].Sig = sig
	}
	return nil
}

func (d *decoder) decodeOptions(ex *core.Export) error {
	toks, err := d.record("options", 1)
	if err != nil {
		return err
	}
	for _, kv := range toks {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return d.errf("bad option %q", kv)
		}
		var ierr error
		atoi := func() int {
			n, err := strconv.Atoi(val)
			if err != nil {
				ierr = err
			}
			return n
		}
		atof := func() float64 {
			f, err := strconv.ParseFloat(val, 64)
			if err != nil {
				ierr = err
			}
			return f
		}
		switch key {
		case "sigmoidk":
			ex.Opts.SigmoidK = atof()
		case "pathlen":
			ex.Opts.PathLen = atoi()
		case "pathmaxblocks":
			ex.Opts.PathMaxBlocks = atoi()
		case "vcpsamples":
			ex.Opts.VCP.Samples = atoi()
		case "vcpminvars":
			ex.Opts.VCP.MinVars = atoi()
		case "vcpsizeratio":
			ex.Opts.VCP.SizeRatio = atof()
		case "vcpmaxcorr":
			ex.Opts.VCP.MaxCorrespondences = atoi()
		case "lshbands":
			ex.Opts.LSHBands = atoi()
		case "lshrows":
			ex.Opts.LSHRows = atoi()
		case "lshmincont":
			ex.Opts.LSHMinContainment = atof()
		case "retrieval":
			ex.Opts.Retrieval, ierr = core.NormalizeRetrieval(val)
		default:
			// Unknown keys are ignored so minor option additions do not
			// invalidate old readers within a format version — and so
			// files that still carry the retired workers=, kernel=,
			// gammabatch=, retrmaxdelta=, cachepairs= and prefilter= keys
			// keep loading.
		}
		if ierr != nil {
			return d.errf("bad option value %q: %v", kv, ierr)
		}
	}
	return nil
}

func (d *decoder) decodeStrands(ex *core.Export) error {
	toks, err := d.record("strands", 1)
	if err != nil {
		return err
	}
	counts, err := d.ints(toks[:1])
	if err != nil {
		return err
	}
	n := counts[0]
	if n < 0 {
		return d.errf("negative strand count %d", n)
	}
	ex.Strands = make([]core.ExportStrand, 0, n)
	for si := 0; si < n; si++ {
		toks, err := d.record("s", 5)
		if err != nil {
			return err
		}
		nums, err := d.ints(toks[:4])
		if err != nil {
			return err
		}
		count, blockIdx, nIn, nSt := nums[0], nums[1], nums[2], nums[3]
		if nIn < 0 || nSt < 0 {
			return d.errf("negative section size in strand %d", si)
		}
		s := &strand.Strand{ProcName: toks[4], BlockIndex: blockIdx}

		// symtab types variable references in statement right-hand sides:
		// in SSA, every reference is an input or an earlier definition.
		symtab := make(map[string]ivl.Type, nIn+nSt)
		for k := 0; k < nIn; k++ {
			toks, err := d.record("i", 2)
			if err != nil {
				return err
			}
			tc, err := d.ints(toks[:1])
			if err != nil {
				return err
			}
			typ, err := codeType(tc[0])
			if err != nil {
				return d.errf("%v", err)
			}
			v := ivl.Var{Name: toks[1], Type: typ}
			s.Inputs = append(s.Inputs, v)
			symtab[v.Name] = v.Type
		}
		for k := 0; k < nSt; k++ {
			toks, err := d.record("a", 3)
			if err != nil {
				return err
			}
			tc, err := d.ints(toks[:1])
			if err != nil {
				return err
			}
			typ, err := codeType(tc[0])
			if err != nil {
				return d.errf("%v", err)
			}
			rhs, err := ivl.ParseExpr(toks[2])
			if err != nil {
				return d.errf("strand %d stmt %d: %v", si, k, err)
			}
			rhs = ivl.Rename(rhs, func(v ivl.Var) ivl.Var {
				if t, ok := symtab[v.Name]; ok {
					v.Type = t
				}
				return v
			})
			dst := ivl.Var{Name: toks[1], Type: typ}
			s.Stmts = append(s.Stmts, ivl.Assign(dst, rhs))
			symtab[dst.Name] = dst.Type
		}
		ex.Strands = append(ex.Strands, core.ExportStrand{S: s, Count: count})
	}
	return nil
}

func (d *decoder) decodeTargets(ex *core.Export) error {
	toks, err := d.record("targets", 1)
	if err != nil {
		return err
	}
	counts, err := d.ints(toks[:1])
	if err != nil {
		return err
	}
	n := counts[0]
	if n < 0 {
		return d.errf("negative target count %d", n)
	}
	ex.Targets = make([]core.ExportTarget, 0, n)
	for ti := 0; ti < n; ti++ {
		toks, err := d.record("t", 8)
		if err != nil {
			return err
		}
		nums, err := d.ints(toks[:3])
		if err != nil {
			return err
		}
		et := core.ExportTarget{
			Name:       toks[3],
			NumBlocks:  nums[0],
			NumStrands: nums[1],
			Source: asm.Provenance{
				Package:   toks[4],
				SourceSym: toks[5],
				Toolchain: toks[6],
				OptLevel:  toks[7],
				Patched:   nums[2] != 0,
			},
		}
		xtoks, err := d.record("x", 1)
		if err != nil {
			return err
		}
		idx, err := d.ints(xtoks)
		if err != nil {
			return err
		}
		if idx[0] != len(idx)-1 {
			return d.errf("target %d: strand index list has %d entries, header says %d", ti, len(idx)-1, idx[0])
		}
		et.StrandIdx = idx[1:]
		ex.Targets = append(ex.Targets, et)
	}
	return nil
}
