// Command eshcorpus builds the simulated test-bed (§5.2–5.3) and either
// describes it, writes every compiled procedure out as assembler text
// (a database the esh command can re-index per run), or indexes it once
// and saves a strand index snapshot that esh -load and eshd serve
// without re-running the pipeline.
//
// Usage:
//
//	eshcorpus -describe
//	eshcorpus -out corpusdir [-scale full] [-patched]
//	eshcorpus -save corpus.eshidx [-scale full] [-patched] [-pathlen 0]
//	eshcorpus -save corpus.eshidx -save-shards 2   # + corpus.eshidx.manifest{,.0,.1}
//	eshcorpus -save corpus.eshidx -wal corpus.wal  # fold an eshd log in, as eshd replays it
//
// The engine flags (package engineflags) are baked into the snapshot;
// esh -load and eshd serve with them unless their own flags override.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/compile"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/engineflags"
	"repro/internal/index"
	"repro/internal/shard"
)

func main() {
	describe := flag.Bool("describe", false, "print the corpus inventory and exit")
	out := flag.String("out", "", "directory to write per-package .s files into")
	save := flag.String("save", "", "index the corpus and write a strand index snapshot to this path")
	scale := flag.String("scale", "full", "small (3 toolchains), medium (5), full (7)")
	patched := flag.Bool("patched", true, "include patched variants of the vulnerable procedures")
	synth := flag.Int("synth", 40, "number of generated decoy packages")
	engine := engineflags.Register(flag.CommandLine, engineflags.Index)
	saveShards := flag.Int("save-shards", 0, "with -save: also split the index into this many shard snapshots plus a manifest at <save>.manifest (serve each shard with eshd, coordinate with eshgw)")
	walPath := flag.String("wal", "", "with -save: fold this write-ahead log (from eshd -wal) into the snapshot before saving")
	flag.Parse()

	opts := engine.Build()

	// Scales match the experiments package: small = one toolchain per
	// vendor, medium = five, full = all seven.
	var tcs []compile.Toolchain
	pick := func(names ...string) []compile.Toolchain {
		var out []compile.Toolchain
		for _, n := range names {
			tc, ok := compile.ByName(n)
			if !ok {
				fail("unknown toolchain %q", n)
			}
			out = append(out, tc)
		}
		return out
	}
	switch *scale {
	case "small":
		tcs = pick("gcc-4.9", "clang-3.5", "icc-15.0.1")
	case "medium":
		tcs = pick("gcc-4.6", "gcc-4.9", "clang-3.4", "clang-3.5", "icc-15.0.1")
	case "full":
		tcs = compile.Toolchains()
	default:
		fail("unknown scale %q", *scale)
	}

	if *describe {
		fmt.Println("Vulnerable procedures (Table 1):")
		for _, v := range corpus.Vulns() {
			fmt.Printf("  #%d %-18s CVE-%-10s %s :: %s\n", v.ID, v.Alias, v.CVE, v.Package, v.FuncName)
		}
		fmt.Println("Decoy packages:")
		for _, d := range corpus.Decoys() {
			fmt.Printf("  %s\n", d.Name)
		}
		fmt.Printf("Toolchains (%d):", len(tcs))
		for _, tc := range tcs {
			fmt.Printf(" %s", tc.Name())
		}
		fmt.Println()
		return
	}
	if *out == "" && *save == "" {
		fail("pass -describe, -out dir, or -save snapshot.eshidx")
	}

	procs, err := corpus.Build(corpus.BuildConfig{
		Toolchains:     tcs,
		IncludePatched: *patched,
		SynthVariants:  *synth,
	})
	if err != nil {
		fail("build: %v", err)
	}

	if *save != "" {
		start := time.Now()
		db := core.NewDB(opts)
		for _, p := range procs {
			if err := db.AddTarget(p); err != nil {
				fail("index %s: %v", p.Name, err)
			}
		}
		// Fold a daemon's WAL into the snapshot by the rule a restarting
		// daemon replays it with, so the saved index carries the live
		// writes (the export is the remapped live view) and records their
		// high-water mark — a daemon restarted on this snapshot with the
		// same WAL skips them.
		if *walPath != "" {
			n, err := index.Fold(db, *walPath)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("folded %d WAL records (high-water mark %d) from %s\n",
				n, db.WALSeq(), *walPath)
		}
		if err := index.SaveFile(*save, db); err != nil {
			fail("%v", err)
		}
		fmt.Printf("indexed %d procedures (%d unique strands) in %s; snapshot saved to %s\n",
			db.NumTargets(), db.NumUniqueStrands(), time.Since(start).Round(time.Millisecond), *save)
		if *saveShards > 0 {
			manifest := *save + ".manifest"
			man, shards, err := shard.SaveShards(manifest, db.Export(), *saveShards)
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("split into %d shards (generation %s); manifest saved to %s\n",
				len(man.Shards), man.Generation, manifest)
			for id, se := range man.Shards {
				fmt.Printf("  shard %d: %4d targets, %6d unique strands  %s\n",
					id, se.NumTargets, len(shards[id].Strands), se.File)
			}
		}
	} else if *saveShards > 0 {
		fail("-save-shards requires -save")
	}
	if *out == "" {
		return
	}
	files := map[string]*strings.Builder{}
	for _, p := range procs {
		key := sanitize(p.Source.Package + "_" + p.Source.Toolchain)
		if p.Source.Patched {
			key += "_patched"
		}
		b, ok := files[key]
		if !ok {
			b = &strings.Builder{}
			files[key] = b
		}
		b.WriteString(p.String())
		b.WriteByte('\n')
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fail("mkdir: %v", err)
	}
	for name, b := range files {
		path := filepath.Join(*out, name+".s")
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			fail("write %s: %v", path, err)
		}
	}
	fmt.Printf("wrote %d procedures into %d files under %s\n", len(procs), len(files), *out)
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eshcorpus: "+format+"\n", args...)
	os.Exit(1)
}
