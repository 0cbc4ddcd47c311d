// Benchmarks regenerating every table and figure of the paper's
// evaluation, plus micro-benchmarks for the pipeline stages. The
// experiment benches run at Small scale so a full -bench=. pass stays
// tractable; run the esheval command with -scale full for the
// paper-sized numbers (recorded in EXPERIMENTS.md).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/gateway"
	"repro/internal/lift"
	"repro/internal/minic"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sketch"
	"repro/internal/smt"
	"repro/internal/strand"
	"repro/internal/telemetry"
	"repro/internal/vcp"
)

func benchCfg() experiments.Config {
	return experiments.Config{Scale: experiments.Small}
}

// BenchmarkTable1 regenerates the eight-CVE search table (S-VCP, S-LOG,
// Esh with FP/ROC/CROC per row).
func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table1(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 8 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable2 regenerates the TRACY-vs-Esh aspect comparison.
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table2(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 7 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkTable3 regenerates the BinDiff whole-library evaluation.
func BenchmarkTable3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Table3(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 8 {
			b.Fatal("bad row count")
		}
	}
}

// BenchmarkFigure5 regenerates the Heartbleed GES bar list.
func BenchmarkFigure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig5(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Bars) == 0 {
			b.Fatal("no bars")
		}
	}
}

// BenchmarkFigure6 regenerates the all-vs-all GES heat map.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig6(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Matrix) == 0 {
			b.Fatal("empty matrix")
		}
	}
}

// BenchmarkCensus regenerates the §6.2 common-strand analysis.
func BenchmarkCensus(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Census(benchCfg(), 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSigmoidK runs the k-ablation slice of the ablation
// study (design choice from §3.3.1).
func BenchmarkAblationSigmoidK(b *testing.B) {
	targets, err := benchCfg().BuildCorpus()
	if err != nil {
		b.Fatal(err)
	}
	v := corpus.Vulns()[0]
	q, err := corpus.CompileVuln(v, benchCfg().QueryToolchain(), false)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, k := range []float64{5, 10, 20} {
			db := core.NewDB(core.Options{SigmoidK: k})
			for _, p := range targets {
				if err := db.AddTarget(p); err != nil {
					b.Fatal(err)
				}
			}
			if _, err := db.Query(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// --- pipeline micro-benchmarks ---------------------------------------------

var microSrc = `
func bench_fn(buf, len, seed) {
	var acc = seed;
	var i = 0;
	while (i < len) {
		var v = load8(buf + i);
		acc = acc * 33 + v;
		acc = acc ^ (acc >>u 7);
		i = i + 1;
	}
	store64(buf + len, acc);
	return acc;
}`

func microProc(b *testing.B, tcName string) *asm.Proc {
	b.Helper()
	tc, ok := compile.ByName(tcName)
	if !ok {
		b.Fatal("no toolchain")
	}
	p, err := compile.Compile(minic.MustParse(microSrc), "bench_fn", tc, compile.O2())
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCompile measures the simulated toolchain.
func BenchmarkCompile(b *testing.B) {
	prog := minic.MustParse(microSrc)
	tc := compile.Toolchains()[2]
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := compile.Compile(prog, "bench_fn", tc, compile.O2()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLift measures disassembly-to-IVL lifting.
func BenchmarkLift(b *testing.B) {
	p := microProc(b, "gcc-4.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		g, err := cfg.Build(p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := lift.LiftProc(g); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStrandExtraction measures Algorithm 1.
func BenchmarkStrandExtraction(b *testing.B) {
	p := microProc(b, "gcc-4.9")
	g, _ := cfg.Build(p)
	lp, _ := lift.LiftProc(g)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if got := strand.FromProc(lp); len(got) == 0 {
			b.Fatal("no strands")
		}
	}
}

// BenchmarkVCP measures one Algorithm-2 strand-pair computation across
// compilers (the verifier hot path). The strands' γ-fingerprint memos
// fill during the first iteration, so from the second on this is the
// memo-warm path: enumeration, lookup and matching, no kernel.
func BenchmarkVCP(b *testing.B) {
	prepare := func(tcName string) []*vcp.Prepared {
		p := microProc(b, tcName)
		g, _ := cfg.Build(p)
		lp, _ := lift.LiftProc(g)
		var out []*vcp.Prepared
		for _, s := range strand.FromProc(lp) {
			if s.NumVars() >= 5 {
				out = append(out, vcp.Prepare(s, vcp.Default()))
			}
		}
		return out
	}
	qs := prepare("gcc-4.9")
	ts := prepare("icc-15.0.1")
	if len(qs) == 0 || len(ts) == 0 {
		b.Fatal("no strands")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range qs {
			for _, t := range ts {
				vcp.Compute(q, t, vcp.Default())
			}
		}
	}
}

// BenchmarkFingerprints measures one γ-loop evaluation of a compiled
// strand — the innermost verifier operation — under the scalar
// reference interpreter and the batched SoA kernel. The batch
// sub-benchmark holds one bound kernel across iterations the way a
// vcp.Evaluator holds one across a γ enumeration, so its allocs/op is
// the γ-loop allocation count (the kernel contract is 0).
func BenchmarkFingerprints(b *testing.B) {
	p := microProc(b, "gcc-4.9")
	g, _ := cfg.Build(p)
	lp, _ := lift.LiftProc(g)
	var best *strand.Strand
	for _, s := range strand.FromProc(lp) {
		if best == nil || s.NumVars() > best.NumVars() {
			best = s
		}
	}
	if best == nil {
		b.Fatal("no strands")
	}
	prog, err := smt.CompileStrand(best.Stmts, best.Inputs)
	if err != nil {
		b.Fatalf("bench strand refused: %v", err)
	}
	slots := make([]int, len(best.Inputs))
	for i := range slots {
		slots[i] = i
	}
	k := smt.DefaultSamples
	b.Run("kernel=scalar", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			prog.Fingerprints(slots, k)
		}
	})
	b.Run("kernel=batch", func(b *testing.B) {
		kern := smt.AcquireKernel()
		defer smt.ReleaseKernel(kern)
		kern.Bind(prog, k, 1)
		kern.Fingerprints(slots) // evaluate the γ-invariant prefix once per bind, as Compute does
		pre, tot := prog.InstrCounts()
		b.ReportMetric(float64(pre)/float64(tot), "prefix-frac")
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			kern.Fingerprints(slots)
		}
	})
	// The γ-batch sweep: each iteration binds G distinct assignments and
	// flushes them through one suffix execution and folds what varies,
	// the steady-state shape of the production γ loop. ns/op is per
	// flush; the ns/γ metric is the amortized per-correspondence cost the
	// dispatch floor bounds — compare it across widths (the benchmark
	// ledger's smt.kernel_ns_per_gamma is the production width's figure).
	for _, g := range []int{1, 4, 8, 16} {
		b.Run(fmt.Sprintf("gamma=%d", g), func(b *testing.B) {
			kern := smt.AcquireKernel()
			defer smt.ReleaseKernel(kern)
			kern.Bind(prog, k, g)
			rows := make([][]int, g)
			for r := range rows {
				// Distinct rotations: every row is a different γ, so the
				// refill path sees realistic per-row slot churn.
				rot := make([]int, len(best.Inputs))
				for i := range rot {
					rot[i] = (i + r) % len(best.Inputs)
				}
				rows[r] = rot
			}
			for r, sl := range rows {
				kern.BindRow(r, sl)
			}
			kern.VaryingRows(g) // prefix + lane warm-up outside the timer
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r, sl := range rows {
					kern.BindRow(r, sl)
				}
				kern.VaryingRows(g)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*g), "ns/γ")
		})
	}
}

// BenchmarkQuery measures one full query against a small database (the
// end-to-end figure the paper reports as ~3 minutes per pair on their
// 8-core machine; see EXPERIMENTS.md for our full-scale timing). The
// verifier-calls/op metric is cumulative calls over all iterations
// divided by N — the VCP row cache makes iterations after the first
// call-free, so compare runs at equal -benchtime. memo-hits/op and
// kernel-rows/op split the first iteration's correspondences by where
// their fingerprints came from: a strand's γ-fingerprint memo, or a
// kernel evaluation that then fills it. prepares/op and rows-complete/op
// say how the iterations split between the two paths: only the first
// prepares query strands (the ones with pairs to verify), every later one
// finds all its rows complete in the row cache — so at N iterations
// prepares/op falls as 1/N and rows-complete/op tends to the query's
// unique strand count.
func BenchmarkQuery(b *testing.B) {
	prog := minic.MustParse(microSrc)
	q := microProc(b, "clang-3.5")
	db := core.NewDB(core.Options{})
	for _, tc := range compile.Toolchains() {
		p, err := compile.Compile(prog, "bench_fn", tc, compile.O2())
		if err != nil {
			b.Fatal(err)
		}
		p.Name = "bench_fn@" + tc.Name()
		if err := db.AddTarget(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query(q); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	st := db.Stats()
	b.ReportMetric(float64(st.VerifierCalls)/float64(b.N), "verifier-calls/op")
	b.ReportMetric(float64(st.MemoHits)/float64(b.N), "memo-hits/op")
	b.ReportMetric(float64(st.GammaBatchRows)/float64(b.N), "kernel-rows/op")
	b.ReportMetric(float64(st.QueryPrepares)/float64(b.N), "prepares/op")
	b.ReportMetric(float64(st.VCPRowsComplete)/float64(b.N), "rows-complete/op")
}

// BenchmarkQueryScale measures how cold query cost scales with corpus
// size at the heuristic tier (suggested containment threshold, default
// banding). The corpus grows 1x/4x/8x in procedure count via synthetic
// decoy packages; stage 3 walks every unique target strand per query
// strand, so verifier-calls/op is the scaling story.
func BenchmarkQueryScale(b *testing.B) {
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5"} {
		tc, ok := compile.ByName(n)
		if !ok {
			b.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	qtc, _ := compile.ByName("clang-3.5")
	q, err := corpus.CompileVuln(corpus.Vulns()[0], qtc, false)
	if err != nil {
		b.Fatal(err)
	}
	// Each synthetic variant contributes 4 procedures per toolchain, so
	// against the 226-procedure two-toolchain base these land on
	// 226/906/1810 targets — 1x/4x/8x to within half a percent (the
	// exact counts are reported as the targets metric).
	scales := []struct {
		name  string
		synth int
	}{{"1x", 0}, {"4x", 85}, {"8x", 198}}
	for _, sc := range scales {
		b.Run("scale="+sc.name, func(b *testing.B) {
			procs, err := corpus.Build(corpus.BuildConfig{
				Toolchains:    tcs,
				SynthVariants: sc.synth,
			})
			if err != nil {
				b.Fatal(err)
			}
			db := core.NewDB(core.Options{LSHMinContainment: sketch.SuggestedMinContainment})
			for _, p := range procs {
				if err := db.AddTarget(p); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := db.Query(q); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			st := db.Stats()
			b.ReportMetric(float64(st.VerifierCalls)/float64(b.N), "verifier-calls/op")
			b.ReportMetric(float64(db.NumTargets()), "targets")
			b.ReportMetric(float64(db.NumUniqueStrands()), "strands")
		})
	}
}

// BenchmarkRecorder measures the flight recorder's per-query tax: the
// span tree a query builds anyway is snapshotted, its stage timings and
// work counters are adopted into a QueryRecord, and the record is
// published into the lock-free ring — everything the server layer adds
// on top of the engine per request. bench-smoke divides this figure by
// BenchmarkQuery ns/op to hold the always-on recorder under 1% of a
// query.
func BenchmarkRecorder(b *testing.B) {
	rec := telemetry.NewRecorder(0, 0, time.Second)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctx, root := telemetry.StartSpan(context.Background(), "query")
		_, spVCP := telemetry.StartSpan(ctx, "vcp")
		spVCP.SetAttr("pairs", 128)
		spVCP.SetAttr("pairs_pruned", 64)
		spVCP.SetAttr("verifier_calls", 900)
		spVCP.End()
		_, spStats := telemetry.StartSpan(ctx, "stats")
		spStats.End()
		root.End()
		qr := &telemetry.QueryRecord{ID: "bench", Kind: "query", Outcome: "completed"}
		qr.FillFromTrace(root.Snapshot())
		if rec.Record(qr) {
			b.Fatal("sub-second record classified slow")
		}
	}
	b.StopTimer()
	if got := rec.Total(); got != uint64(b.N) {
		b.Fatalf("recorder holds %d records, want %d", got, b.N)
	}
}

// BenchmarkGatewayQuery measures the scatter-gather cluster tier
// against the same corpus served whole: one query through a single
// in-process eshd server (the HTTP floor) vs through an eshgw gateway
// fanning out to two in-process shard servers and merging. The delta
// is the cluster tax — two HTTP legs, the partial frames, and the exact
// merge — paid for halving per-node corpus size. On this 7-target micro
// corpus it is a smoke test; the tax on a paper-sized corpus is eshbench's
// fleet_warm workload (gateway.tax_ratio).
func BenchmarkGatewayQuery(b *testing.B) {
	prog := minic.MustParse(microSrc)
	q := microProc(b, "clang-3.5")
	db := core.NewDB(core.Options{})
	for _, tc := range compile.Toolchains() {
		p, err := compile.Compile(prog, "bench_fn", tc, compile.O2())
		if err != nil {
			b.Fatal(err)
		}
		p.Name = "bench_fn@" + tc.Name()
		if err := db.AddTarget(p); err != nil {
			b.Fatal(err)
		}
	}
	ex := db.Export()
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	scfg := server.Config{Logger: quiet}

	single, err := core.FromExport(ex)
	if err != nil {
		b.Fatal(err)
	}
	singleSrv := httptest.NewServer(server.New(single, scfg).Handler())
	defer singleSrv.Close()

	man, shardExs, err := shard.Split(ex, 2)
	if err != nil {
		b.Fatal(err)
	}
	var urls [][]string
	for s, se := range shardExs {
		sdb, err := core.FromExport(se)
		if err != nil {
			b.Fatalf("shard %d: %v", s, err)
		}
		ts := httptest.NewServer(server.New(sdb, scfg).Handler())
		defer ts.Close()
		urls = append(urls, []string{ts.URL})
	}
	gw, err := gateway.New(gateway.Config{Manifest: man, Shards: urls, Logger: quiet})
	if err != nil {
		b.Fatal(err)
	}
	gwSrv := httptest.NewServer(gw.Handler())
	defer gwSrv.Close()

	body, err := json.Marshal(server.QueryRequest{Asm: q.String(), Top: 10})
	if err != nil {
		b.Fatal(err)
	}
	post := func(b *testing.B, url string) {
		b.Helper()
		resp, err := http.Post(url+"/v1/query", "application/json", bytes.NewReader(body))
		if err != nil {
			b.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			b.Fatalf("query = %d: %s", resp.StatusCode, msg)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	b.Run("node=single", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, singleSrv.URL)
		}
	})
	b.Run("fanout=2", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			post(b, gwSrv.URL)
		}
	})
}

// BenchmarkEmulator measures the machine emulator on the compiled loop.
func BenchmarkEmulator(b *testing.B) {
	p := microProc(b, "gcc-4.9")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := asm.NewMachine()
		m.AddProc(p)
		m.Regs[asm.RDI] = 0x4000
		m.Regs[asm.RSI] = 64
		m.Regs[asm.RDX] = 7
		if _, err := m.Run("bench_fn"); err != nil {
			b.Fatal(err)
		}
	}
}
