// Package index persists an indexed core.DB to disk and reloads it, so
// a corpus is indexed once (eshcorpus -save) and served many times
// (eshd, esh -load) without re-running the disassemble→CFG→lift→strand
// pipeline.
//
// A snapshot is a recfile container with magic "eshidx": a checksummed
// header, then line records for the engine options, the unique strands
// (canonical IVL text, multiplicity), and the targets (provenance plus
// strand index lists). Verifier preparations are recomputed at load time
// (they are deterministic functions of the strands), which keeps
// snapshots small and format-stable.
package index

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/ivl"
	"repro/internal/recfile"
	"repro/internal/sketch"
	"repro/internal/stats"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

// Magic identifies snapshot files; Version is the one format read and
// written. Besides the options, strands and targets it carries the
// shard-identity record, the wal record (compaction generation +
// journal high-water mark, what lets a restarting daemon skip
// already-folded journal records), per-strand MinHash signatures,
// and per-target strand multiplicities (what lets a corpus split into
// shards whose local strand counts sum exactly to the union's); a shard
// snapshot also carries each target's split position. Versions 1–6 are
// refused: no fleet holds them.
const (
	Magic   = "eshidx"
	Version = 7
)

// Override adjusts the options a snapshot was saved with before the
// engine is built from them (core.FromExport) — how a binary's
// explicitly-set flags reach a loaded database. Nil keeps the
// snapshot's options.
type Override func(core.Options) core.Options

// Info identifies one snapshot: the format version, body size, body
// checksum, and the shard identity baked into it. The checksum names the
// file on disk (eshd logs it, /v1/stats reports it); a fleet is named by
// the shard identity's generation.
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

// SaveExportCtx writes a snapshot of already-exported state — the shard
// splitter's path, which never materializes a prepared DB per shard —
// recording an "index.save" telemetry span under the one carried by ctx (if
// any). It returns the written snapshot's identity (checksum, size, shard)
// for manifest construction. Every saver comes through here.
func SaveExportCtx(ctx context.Context, w io.Writer, ex *core.Export) (Info, error) {
	// An engine the ablation built in process at a retired setting no load
	// admits would reload answering differently: refuse it, writing nothing.
	held := [...]float64{ex.Opts.VCP.SizeRatio, float64(ex.Opts.PathMaxBlocks)}
	for i, key := range [...]string{"vcpsizeratio", "pathmaxblocks"} {
		if rk := retiredKeys[key]; !slices.Contains(rk.loads, held[i]) {
			return Info{}, fmt.Errorf("index: cannot save %s=%g: %s", key, held[i], rk.why)
		}
	}
	_, sp := telemetry.StartSpan(ctx, "index.save")
	defer func() { mSaveSeconds.Observe(sp.End().Seconds()) }()
	body := encodeBody(ex)
	sp.SetAttr("bytes", float64(len(body)))
	mSnapshotBytes.Set(float64(len(body)))
	sum, err := recfile.Write(w, Magic, Version, body)
	if err != nil {
		return Info{}, fmt.Errorf("index: %w", err)
	}
	return Info{Version: Version, BodyLen: len(body), Checksum: sum, Shard: ex.Shard}, nil
}

// SaveFile writes a snapshot of the database to path; see SaveExportFile.
func SaveFile(path string, db *core.DB) error {
	_, err := SaveExportFile(path, db.Export())
	return err
}

// SaveExportFile writes a snapshot of already-exported state durably over
// path (recfile.Replace: the file and then its directory are fsynced),
// returning the snapshot identity.
func SaveExportFile(path string, ex *core.Export) (Info, error) {
	var info Info
	err := recfile.Replace(path, func(w io.Writer) (err error) {
		info, err = SaveExportCtx(context.Background(), w, ex)
		return err
	})
	if err != nil {
		return Info{}, err
	}
	return info, nil
}

// LoadInfoCtx reads a snapshot and rebuilds a queryable database,
// re-indexing every strand (the rebuilt DB answers Query identically to
// the one that was saved), with the options override applied between
// decode and engine construction, returning the snapshot's identity alongside
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
		ex.Opts = override(ex.Opts)
	}

	// FromExport compiles every strand once for its fingerprints — usually
	// the dominant cost of a load, hence its own child span.
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
	db, info, err := LoadInfoCtx(ctx, f, override)
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: load %s: %w", path, err)
	}
	return db, info, nil
}

// LoadExportInfo reads and verifies a snapshot, returning the decoded state
// without preparing strands, and the snapshot identity.
func LoadExportInfo(r io.Reader) (*core.Export, Info, error) {
	body, sum, err := recfile.Read(r, Magic, Version, "snapshot")
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: %w", err)
	}
	mSnapshotBytes.Set(float64(len(body)))
	ex, err := decodeBody(body)
	if err != nil {
		return nil, Info{}, fmt.Errorf("index: %w", err)
	}
	return ex, Info{Version: Version, BodyLen: len(body), Checksum: sum, Shard: ex.Shard}, nil
}

// ---- body encoding ----

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

// OptionsRecord is the snapshot record of the engine options o: every
// setting a snapshot holds, so also what a shard split's generation
// hashes of them. No retired key (retiredKeys) is written, workers=
// among them.
func OptionsRecord(o core.Options) string {
	return fmt.Sprintf("options pathlen=%d vcpsamples=%d vcpminvars=%d vcpmaxcorr=%d\n",
		o.PathLen, o.VCP.Samples, o.VCP.MinVars, o.VCP.MaxCorrespondences)
}

func encodeBody(ex *core.Export) []byte {
	var b bytes.Buffer
	b.WriteString(OptionsRecord(ex.Opts))

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
		recfile.WriteIntList(&b, "x", t.StrandIdx)
	}

	// Sketch section: per-strand MinHash signatures and the banding they
	// are cut into (always the default), so a load can rebuild the sketch
	// index without recomputing features. Written empty (count 0) when any
	// signature is missing or inconsistent; the loader recomputes in that
	// case.
	cfg := sketch.Config{}.Normalized()
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
		recfile.WriteIntList(&b, "m", t.StrandMult)
	}

	// A shard snapshot's split positions (core.Target.SplitPos), one per
	// target, 0 for a live add. An unsharded corpus has none to write.
	if ex.Shard.Sharded() {
		pos := make([]int, len(ex.Targets))
		for i, t := range ex.Targets {
			pos[i] = t.SplitPos
		}
		recfile.WriteIntList(&b, "p", pos)
	}
	return b.Bytes()
}

// ---- body decoding ----

type decoder struct{ *recfile.Reader }

func decodeBody(body []byte) (*core.Export, error) {
	d := &decoder{recfile.NewReader(body)}
	ex := &core.Export{}
	for _, section := range []func(*core.Export) error{
		d.decodeOptions, d.decodeShard, d.decodeWAL, d.decodeStrands,
		d.decodeTargets, d.decodeSketch, d.decodeMults, d.decodePositions,
	} {
		if err := section(ex); err != nil {
			return nil, err
		}
	}
	return ex, d.End()
}

// decodeShard reads the shard identity record.
func (d *decoder) decodeShard(ex *core.Export) error {
	toks, err := d.Record("shard", 3)
	if err != nil {
		return err
	}
	nums, err := d.Ints(toks[:2])
	if err != nil {
		return err
	}
	ex.Shard = core.ShardInfo{ID: nums[0], Count: nums[1], Generation: toks[2]}
	if ex.Shard.Count < 0 {
		return d.Errf("negative shard count %d", ex.Shard.Count)
	}
	if ex.Shard.Sharded() && (ex.Shard.ID < 0 || ex.Shard.ID >= ex.Shard.Count) {
		return d.Errf("shard id %d out of range [0,%d)", ex.Shard.ID, ex.Shard.Count)
	}
	return nil
}

// decodeWAL reads the write-path watermark record: the
// compaction generation and the journal sequence number already folded
// into the snapshot (startup replay skips records at or below it).
func (d *decoder) decodeWAL(ex *core.Export) error {
	toks, err := d.Record("wal", 2)
	if err != nil {
		return err
	}
	gen, err := strconv.ParseUint(toks[0], 10, 64)
	if err != nil {
		return d.Errf("bad wal generation %q", toks[0])
	}
	seq, err := strconv.ParseUint(toks[1], 10, 64)
	if err != nil {
		return d.Errf("bad wal sequence %q", toks[1])
	}
	ex.Generation, ex.WALSeq = gen, seq
	return nil
}

// decodeMults reads the multiplicity section: one record per target.
func (d *decoder) decodeMults(ex *core.Export) error {
	toks, err := d.Record("mults", 1)
	if err != nil {
		return err
	}
	nums, err := d.Ints(toks[:1])
	if err != nil {
		return err
	}
	n := nums[0]
	if n != len(ex.Targets) {
		return d.Errf("mults section has %d records for %d targets", n, len(ex.Targets))
	}
	for i := 0; i < n; i++ {
		mult, err := d.IntList("m")
		if err != nil {
			return err
		}
		if len(mult) != len(ex.Targets[i].StrandIdx) {
			return d.Errf("target %d: %d multiplicities for %d strand indices", i, len(mult), len(ex.Targets[i].StrandIdx))
		}
		ex.Targets[i].StrandMult = mult
	}
	return nil
}

// decodePositions reads a shard snapshot's split positions.
func (d *decoder) decodePositions(ex *core.Export) error {
	if !ex.Shard.Sharded() {
		return nil
	}
	pos, err := d.IntList("p")
	if err == nil && len(pos) != len(ex.Targets) {
		err = d.Errf("%d split positions for %d targets", len(pos), len(ex.Targets))
	}
	for i := 0; err == nil && i < len(pos); i++ {
		if pos[i] < 0 {
			err = d.Errf("target %d: negative split position %d", i, pos[i])
		}
		ex.Targets[i].SplitPos = pos[i]
	}
	return err
}

// decodeSketch reads the sketch section. A zero strand count
// means signatures were not persisted; core.FromExport recomputes them.
func (d *decoder) decodeSketch(ex *core.Export) error {
	toks, err := d.Record("sketch", 3)
	if err != nil {
		return err
	}
	nums, err := d.Ints(toks[:3])
	if err != nil {
		return err
	}
	n, bands, rows := nums[0], nums[1], nums[2]
	if n != 0 && n != len(ex.Strands) {
		return d.Errf("sketch section has %d signatures for %d strands", n, len(ex.Strands))
	}
	if bands <= 0 || rows <= 0 {
		return d.Errf("bad sketch geometry %dx%d", bands, rows)
	}
	want := bands * rows
	for i := 0; i < n; i++ {
		gtoks, err := d.Record("g", want)
		if err != nil {
			return err
		}
		if len(gtoks) != want {
			return d.Errf("signature %d has %d values, want %d", i, len(gtoks), want)
		}
		sig := make(sketch.Signature, want)
		for k, t := range gtoks {
			v, err := strconv.ParseUint(t, 10, 32)
			if err != nil {
				return d.Errf("bad signature value %q", t)
			}
			sig[k] = uint32(v)
		}
		ex.Strands[i].Sig = sig
	}
	return nil
}

// retiredKeys are the option keys earlier builds wrote and this one does
// not, each with why it went (DESIGN §16 has a row for each). A snapshot
// that still carries one loads with the key ignored if its value is in
// loads, one this engine answers identically at; nil loads admits any.
var retiredKeys = map[string]struct {
	loads []float64
	why   string
}{
	"workers":      {why: "a deployment setting: the loading process picks it"},
	"kernel":       {why: "the batched kernel is the one evaluator"},
	"gammabatch":   {why: "one γ width is production"},
	"retrmaxdelta": {why: "went with the probe table"},
	"cachepairs":   {why: "the row cache budget is a constant"},
	"prefilter":    {why: "forward injectability is always tested"},
	"lshbands":     {why: "the banding is the constant 24×3"},
	"lshrows":      {why: "the banding is the constant 24×3"},
	"retrieval":    {why: "went with the probe table"},
	"lshmincont":   {[]float64{0}, "the heuristic candidate tier is retired; re-save the corpus at the sound tier"},
	"vcpsizeratio": {[]float64{0, vcp.Default().SizeRatio}, fmt.Sprintf(
		"the §5.5 size window (VCP.SizeRatio) is retired as an option: a snapshot holds the engine's %g", vcp.Default().SizeRatio)},
	"pathmaxblocks": {[]float64{0, core.DefaultPathMaxBlocks}, fmt.Sprintf(
		"the path-strand block limit (PathMaxBlocks) is retired as an option: a snapshot holds the engine's %d", core.DefaultPathMaxBlocks)},
	"sigmoidk": {[]float64{0, stats.DefaultSigmoidK}, fmt.Sprintf(
		"the sigmoid steepness (SigmoidK) is retired as an option: a snapshot holds the paper's k = %g", stats.DefaultSigmoidK)},
}

func (d *decoder) decodeOptions(ex *core.Export) error {
	toks, err := d.Record("options", 1)
	if err != nil {
		return err
	}
	for _, kv := range toks {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return d.Errf("bad option %q", kv)
		}
		var ierr error
		count := func(dst *int, ceiling int) {
			if *dst, ierr = strconv.Atoi(val); ierr == nil {
				ierr = core.CheckCount(*dst, ceiling)
			}
		}
		switch key {
		case "pathlen":
			count(&ex.Opts.PathLen, math.MaxInt)
		case "vcpsamples":
			count(&ex.Opts.VCP.Samples, core.MaxVCPSamples)
		case "vcpminvars":
			count(&ex.Opts.VCP.MinVars, math.MaxInt)
		case "vcpmaxcorr":
			count(&ex.Opts.VCP.MaxCorrespondences, core.MaxVCPCorrespondences)
		default:
			// Unknown keys are ignored so minor option additions do not
			// invalidate old readers within a format version; a retired
			// key loads at the values its table entry admits.
			if rk, ok := retiredKeys[key]; ok && rk.loads != nil {
				var v float64
				if v, ierr = strconv.ParseFloat(val, 64); ierr == nil && !slices.Contains(rk.loads, v) {
					ierr = errors.New(rk.why)
				}
			}
		}
		if ierr != nil {
			return d.Errf("bad option value %q: %v", kv, ierr)
		}
	}
	return nil
}

func (d *decoder) decodeStrands(ex *core.Export) error {
	toks, err := d.Record("strands", 1)
	if err != nil {
		return err
	}
	n, err := d.Count(toks[0], "strand")
	if err != nil {
		return err
	}
	for si := 0; si < n; si++ {
		toks, err := d.Record("s", 5)
		if err != nil {
			return err
		}
		nums, err := d.Ints(toks[:2])
		if err != nil {
			return err
		}
		count, blockIdx := nums[0], nums[1]
		nIn, err := d.Count(toks[2], "input")
		if err != nil {
			return err
		}
		nSt, err := d.Count(toks[3], "statement")
		if err != nil {
			return err
		}
		s := &strand.Strand{ProcName: toks[4], BlockIndex: blockIdx}

		// symtab types variable references in statement right-hand sides:
		// in SSA, every reference is an input or an earlier definition.
		symtab := make(map[string]ivl.Type)
		for k := 0; k < nIn; k++ {
			toks, err := d.Record("i", 2)
			if err != nil {
				return err
			}
			tc, err := d.Ints(toks[:1])
			if err != nil {
				return err
			}
			typ, err := codeType(tc[0])
			if err != nil {
				return d.Errf("%v", err)
			}
			v := ivl.Var{Name: toks[1], Type: typ}
			s.Inputs = append(s.Inputs, v)
			symtab[v.Name] = v.Type
		}
		for k := 0; k < nSt; k++ {
			toks, err := d.Record("a", 3)
			if err != nil {
				return err
			}
			tc, err := d.Ints(toks[:1])
			if err != nil {
				return err
			}
			typ, err := codeType(tc[0])
			if err != nil {
				return d.Errf("%v", err)
			}
			rhs, err := ivl.ParseExpr(toks[2])
			if err != nil {
				return d.Errf("strand %d stmt %d: %v", si, k, err)
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
	toks, err := d.Record("targets", 1)
	if err != nil {
		return err
	}
	n, err := d.Count(toks[0], "target")
	if err != nil {
		return err
	}
	for ti := 0; ti < n; ti++ {
		toks, err := d.Record("t", 8)
		if err != nil {
			return err
		}
		nums, err := d.Ints(toks[:3])
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
		if et.StrandIdx, err = d.IntList("x"); err != nil {
			return err
		}
		ex.Targets = append(ex.Targets, et)
	}
	return nil
}
