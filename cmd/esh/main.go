// Command esh is the search tool of the reproduction: given a query
// procedure and a target database of procedures in assembler-text form,
// it prints the targets ranked by the statistical similarity (GES) of the
// paper, or by the S-LOG sub-method score.
//
// Usage:
//
//	esh -query q.s [-load corpus.eshidx] [-top 20] [-method esh]
//	    [-workers 0] [-pathlen 0] [-sigmoid-k 0] [-lsh-min-containment 0]
//	    [dir-or-file.s ...]
//
// Files hold procedures in the Intel-like assembler syntax of
// internal/asm (see Proc.String); a file may contain many procedures.
// With -demo, esh builds a small demonstration database from the bundled
// corpus instead of reading files. With -load, the target database is
// restored from a strand index snapshot written by eshcorpus -save, so
// the corpus is not re-indexed on every invocation. The engine flags
// (second usage line; package engineflags) override the
// defaults of a fresh index or the loaded snapshot's own options; an
// unset flag keeps that base value.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engineflags"
	"repro/internal/index"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

func main() {
	queryPath := flag.String("query", "", "file containing the query procedure (first proc is used)")
	top := flag.Int("top", 20, "number of ranked targets to print")
	method := flag.String("method", "esh", "ranking method: esh, slog")
	demo := flag.Bool("demo", false, "use the bundled demo corpus as the target database")
	loadPath := flag.String("load", "", "restore the target database from a strand index snapshot (eshcorpus -save)")
	timings := flag.Bool("timings", false, "print a per-stage timing and work breakdown to stderr")
	repeat := flag.Int("repeat", 1, "run the query this many times and print a p50/p95/p99 latency summary with -timings (results print once)")
	engine := engineflags.Register(flag.CommandLine, engineflags.Index|engineflags.Query)
	flag.Parse()

	var m stats.Method
	switch *method {
	case "esh":
		m = stats.Esh
	case "slog":
		m = stats.SLOG
	default:
		fmt.Fprintf(os.Stderr, "esh: unknown method %q (esh, slog)\n", *method)
		flag.Usage()
		os.Exit(2)
	}

	var db *core.DB
	if *loadPath != "" {
		var err error
		db, _, err = index.LoadFileInfoCtx(context.Background(), *loadPath, engine.Load)
		if err != nil {
			fail("%v", err)
		}
		if si := db.Shard(); si.Sharded() {
			fmt.Fprintf(os.Stderr, "esh: warning: %s is shard %d of %d (generation %s); scores use shard-local statistics — query the fleet through eshgw for corpus-exact scores\n",
				*loadPath, si.ID, si.Count, si.Generation)
		}
	} else {
		opts, err := engine.Build()
		if err != nil {
			fail("%v", err)
		}
		db = core.NewDB(opts)
	}
	var query *asm.Proc

	if *demo {
		procs, err := corpus.Build(corpus.BuildConfig{
			Toolchains:     compile.Toolchains()[:4],
			IncludePatched: true,
		})
		if err != nil {
			fail("build demo corpus: %v", err)
		}
		for _, p := range procs {
			if err := db.AddTarget(p); err != nil {
				fail("index %s: %v", p.Name, err)
			}
		}
		if *queryPath == "" {
			icc, _ := compile.ByName("icc-15.0.1")
			q, err := corpus.CompileVuln(corpus.Vulns()[0], icc, false)
			if err != nil {
				fail("compile demo query: %v", err)
			}
			query = q
		}
	}

	for _, path := range flag.Args() {
		if err := loadInto(db, path); err != nil {
			fail("%v", err)
		}
	}

	if *queryPath != "" {
		data, err := os.ReadFile(*queryPath)
		if err != nil {
			fail("read query: %v", err)
		}
		procs, err := asm.Parse(string(data))
		if err != nil {
			fail("parse query: %v", err)
		}
		if len(procs) == 0 {
			fail("query file %s contains no procedures", *queryPath)
		}
		query = procs[0]
	}
	if query == nil {
		fail("no query: pass -query file.s (or -demo)")
	}
	if db.NumTargets() == 0 {
		fail("no targets: pass database files as arguments (or -demo / -load)")
	}

	if *repeat < 1 {
		*repeat = 1
	}
	ctx, root := telemetry.StartSpan(context.Background(), "query")
	rep, err := db.QueryCtx(ctx, query)
	root.End()
	if err != nil {
		fail("query: %v", err)
	}
	// Extra runs feed the latency percentile summary; the first run's
	// report and trace are the ones printed (repeats hit the VCP cache,
	// so they measure steady-state serve latency, not cold indexing).
	lat := telemetry.NewQuantiles(0.5, 0.95, 0.99)
	lat.Observe(root.Duration().Seconds())
	for i := 1; i < *repeat; i++ {
		rctx, rspan := telemetry.StartSpan(context.Background(), "query")
		if _, err := db.QueryCtx(rctx, query); err != nil {
			fail("query (repeat %d): %v", i, err)
		}
		lat.Observe(rspan.End().Seconds())
	}
	fmt.Printf("query %s: %d blocks, %d strands; database: %d procedures, %d unique strands\n",
		rep.QueryName, rep.NumBlocks, rep.NumStrands, db.NumTargets(), db.NumUniqueStrands())
	fmt.Printf("%-4s %-52s %12s\n", "rank", "procedure", m.String())
	for i, ts := range rep.Rank(m) {
		if i >= *top {
			break
		}
		fmt.Printf("%-4d %-52s %12.3f\n", i+1, ts.Target.Name, ts.Score(m))
	}
	if *timings {
		fmt.Fprintln(os.Stderr, "timings:")
		root.Snapshot().WriteTree(os.Stderr)
		if *repeat > 1 {
			fmt.Fprintf(os.Stderr, "latency over %d runs: p50 %.3fms  p95 %.3fms  p99 %.3fms  max %.3fms\n",
				*repeat,
				lat.Quantile(0.5)*1000, lat.Quantile(0.95)*1000,
				lat.Quantile(0.99)*1000, lat.Max()*1000)
		}
	}
}

// loadInto parses one .s file or all .s files under a directory.
func loadInto(db *core.DB, path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var files []string
	if info.IsDir() {
		err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(p, ".s") {
				files = append(files, p)
			}
			return err
		})
		if err != nil {
			return err
		}
	} else {
		files = []string{path}
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		procs, err := asm.Parse(string(data))
		if err != nil {
			return fmt.Errorf("parse %s: %w", f, err)
		}
		for _, p := range procs {
			if err := db.AddTarget(p); err != nil {
				return fmt.Errorf("index %s: procedure %s: %w", f, p.Name, err)
			}
		}
	}
	return nil
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "esh: "+format+"\n", args...)
	os.Exit(1)
}
