// Command eshbench is the repo's benchmark: it builds the real binaries
// (eshcorpus, eshd, eshgw), serves four workloads from them over
// loopback HTTP with default flags only, checks every answer against an
// in-process oracle, and prints every metric by name with its unit.
//
// Usage:
//
//	eshbench -seed N                  # all four workloads, untraced
//	eshbench -seed N -trace 1         # the traced set: per-layer ledger + trace.json
//	eshbench -seed N -aa K            # K untraced sets back to back, spread per metric
//	eshbench -workload search_cold -seed N -seconds 10 -trace 0
//
// The last form is the driver contract of BENCHMARK.json (normally run
// through cmd/eshbench/run.sh, which keeps the Go build cache inside the
// checkout): one workload, and the last line of standard output is one
// JSON object {"correct","attempted","failed","metrics"}.
//
// Every workload runs a fixed operation count — a per-second constant
// times -seconds — so work counts repeat exactly; see README.md for the
// workload table and the metric → layer → workload map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strings"
	"syscall"
)

func main() {
	workload := flag.String("workload", "", "run one workload (search_cold, search_warm, fleet_warm, ingest_mixed) and end with the driver's JSON line; empty = all four")
	seed := flag.Int64("seed", 1, "input seed: picks query order, hot set and write script")
	seconds := flag.Float64("seconds", defaultSeconds, "nominal timed-window length; operation counts are per-second constants times this")
	trace := flag.Int("trace", 0, "1 = the traced run: ?trace=1 on every request, in-process layer calls, per-layer metrics, trace.json")
	aa := flag.Int("aa", 0, "run this many untraced sets back to back (seeds seed, seed+1, …) and print each end-to-end metric's median, quartiles and spread")
	workdir := flag.String("workdir", ".bench_build", "directory for built binaries and the per-run temp dir (created; the temp dir is removed on exit)")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal("unexpected argument %q", flag.Arg(0))
	}
	if *seconds <= 0 {
		fatal("-seconds must be positive")
	}
	names := workloadNames
	if *workload != "" {
		if !slices.Contains(workloadNames, *workload) {
			fatal("unknown workload %q (%s)", *workload, strings.Join(workloadNames, ", "))
		}
		names = []string{*workload}
	}

	h, err := newHarness(*workdir)
	if err != nil {
		fatal("%v", err)
	}
	// Children and the temp dir must go on every exit path, so nothing
	// below calls os.Exit directly: it returns a code through here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		fmt.Fprintln(os.Stderr, "eshbench: interrupted, cleaning up")
		h.cleanup()
		os.Exit(130)
	}()
	code := run(h, names, *seed, *seconds, *trace == 1, *aa, *workload != "")
	if err := h.cleanup(); err != nil {
		fmt.Fprintf(os.Stderr, "eshbench: %v\n", err)
		code = 1
	}
	os.Exit(code)
}

func run(h *harness, names []string, seed int64, seconds float64, trace bool, aa int, driver bool) int {
	if err := h.build(); err != nil {
		fmt.Fprintf(os.Stderr, "eshbench: %v\n", err)
		return 1
	}
	h.stamp.print(os.Stdout)
	if aa > 0 {
		return runAA(h, names, seed, seconds, aa)
	}
	code := 0
	var last *result
	for _, name := range names {
		res, err := runWorkload(h, name, seed, seconds, trace)
		if err != nil {
			fmt.Fprintf(os.Stderr, "eshbench: %s: %v\n", name, err)
			return 1
		}
		res.print(os.Stdout)
		if !res.correct() {
			code = 1
		}
		last = res
	}
	if trace {
		if err := h.writeTrace(); err != nil {
			fmt.Fprintf(os.Stderr, "eshbench: %v\n", err)
			return 1
		}
	}
	if driver {
		// The contract's result line. A run with wrong answers still
		// prints it (correct=false says so) and still exits 0: the
		// measurement completed; the verdict is the driver's.
		line, err := json.Marshal(last.contractLine())
		if err != nil {
			fmt.Fprintf(os.Stderr, "eshbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
		return 0
	}
	return code
}

// runAA is the A/A mode: K untraced sets of the same binaries, workload
// order alternating between sets, seeds seed..seed+K-1 (the way the
// driver measures spread). A metric whose spread exceeds its bound does
// not belong in BENCHMARK.json's end_to_end list.
func runAA(h *harness, names []string, seed int64, seconds float64, k int) int {
	type key struct{ workload, metric string }
	values := map[key][]float64{}
	var stamps []string
	for set := 0; set < k; set++ {
		order := append([]string(nil), names...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := runWorkload(h, name, seed+int64(set), seconds, false)
			if err != nil {
				fmt.Fprintf(os.Stderr, "eshbench: %s: %v\n", name, err)
				return 1
			}
			if !res.correct() {
				res.print(os.Stdout)
				fmt.Fprintf(os.Stderr, "eshbench: %s: wrong answers in A/A set %d\n", name, set)
				return 1
			}
			stamps = append(stamps, res.Stamp)
			for m, v := range res.Metrics {
				values[key{name, m}] = append(values[key{name, m}], v.Value)
			}
			fmt.Printf("aa set %d %s done\n", set, name)
		}
	}
	// Numbers are merged only across runs whose stamp is the same.
	for _, s := range stamps {
		if s != stamps[0] {
			fmt.Fprintf(os.Stderr, "eshbench: refusing to merge runs with different stamps:\n  %s\n  %s\n", stamps[0], s)
			return 1
		}
	}
	keys := make([]key, 0, len(values))
	for kk := range values {
		keys = append(keys, kk)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].workload != keys[j].workload {
			return keys[i].workload < keys[j].workload
		}
		return keys[i].metric < keys[j].metric
	})
	fmt.Printf("aa summary over %d sets (spread = (q3-q1)/median, quartiles as Python statistics.quantiles n=4)\n", k)
	code := 0
	for _, kk := range keys {
		def, ok := metricByName[kk.metric]
		if !ok || def.Layer != "" && !def.Demoted {
			continue
		}
		vs := values[kk]
		if len(vs) < 2 {
			continue
		}
		q1, q2, q3 := quartiles(vs)
		spread := 0.0
		if q2 != 0 {
			spread = (q3 - q1) / q2
		}
		verdict := "ok"
		switch {
		case spread > def.Bound && def.Demoted:
			verdict = "spread exceeds the bound (already per_layer in BENCHMARK.json)"
		case spread > def.Bound:
			verdict = "SPREAD EXCEEDS BOUND: demote to per_layer"
			code = 1
		case spread > def.Bound/3:
			verdict = "spread above a third of the bound"
		}
		fmt.Printf("  %-13s %-26s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f bound %.2f %s  %s\n    runs: %.6g\n",
			kk.workload, kk.metric, q2, q1, q3, spread, def.Bound, def.Unit, verdict, vs)
	}
	return code
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "eshbench: "+format+"\n", args...)
	os.Exit(2)
}
