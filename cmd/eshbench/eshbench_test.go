package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// The same seed must give byte-identical query sets, hot set and write
// script; another seed must give different ones.
func TestInputsAreDeterministic(t *testing.T) {
	for _, w := range workloadNames {
		a, err := generate(7, 2, w, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		b, err := generate(7, 2, w, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		c, err := generate(8, 2, w, fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		if a.digest() != b.digest() {
			t.Errorf("%s: seed 7 gave two different input sets", w)
		}
		if a.digest() == c.digest() {
			t.Errorf("%s: seeds 7 and 8 gave the same input set", w)
		}
	}
}

// search_cold's work counts must repeat exactly across seeds: the seed
// orders the population, it does not pick it.
func TestColdPopulationIsSeedIndependent(t *testing.T) {
	names := func(seed int64) map[string]bool {
		in, err := generate(seed, defaultSeconds, "search_cold", fullSizes)
		if err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, q := range in.Cold {
			set[q.Name] = true
		}
		return set
	}
	a, b := names(1), names(2)
	if len(a) < 100 {
		t.Fatalf("cold population has %d procedures; query_p90_ms needs 100", len(a))
	}
	for n := range a {
		if !b[n] {
			t.Fatalf("%s is in seed 1's population but not seed 2's", n)
		}
	}
	if len(a) != len(b) {
		t.Fatalf("population sizes differ: %d and %d", len(a), len(b))
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4),
// which is what the driver computes spreads with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{5, 1, 9, 3, 7}, 2, 5, 8},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
}

// BENCHMARK.json is written by hand; it must say what the code says.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if bj.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds = %d, the code's default is %d", bj.RunSeconds, defaultSeconds)
	}
	if len(bj.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads, want %d", len(bj.Workloads), len(workloadNames))
	}
	for i, w := range bj.Workloads {
		if w.Name != workloadNames[i] || w.Why != workloadWhy[w.Name] {
			t.Errorf("workload %d = %q %q, want %q %q", i, w.Name, w.Why, workloadNames[i], workloadWhy[workloadNames[i]])
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters, the contract allows 200", w.Name, len(w.Why))
		}
	}
	var e2e, layers []metricDef
	for _, d := range metricDefs {
		if d.Layer == "" {
			e2e = append(e2e, d)
		} else {
			layers = append(layers, d)
		}
	}
	check := func(kind string, got []metric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the code", kind, len(got), len(want))
		}
		for i, g := range got {
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d = %+v, want %s %s %s", kind, i, g, w.Name, w.Unit, w.Better)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != w.Bound {
				t.Errorf("%s metric %s: bound %v, want %v (bounded=%v)", kind, g.Name, g.Bound, w.Bound, bounded)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, e2e, true)
	check("per_layer", bj.PerLayer, layers, false)
}

// TestMiniature runs every workload, untraced and traced, at a fraction
// of its size through the real binaries, so that tier-1 exercises the
// harness: build, set-up, closed-loop windows, the oracle, restarts,
// the layer ledger and cleanup.
func TestMiniature(t *testing.T) {
	h, err := newHarness(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := h.cleanup(); err != nil {
			t.Error(err)
		}
	}()
	h.sz = sizes{hotSet: 2, ingestHotSet: 1, setupRounds: 2, restartRounds: 1}
	if err := h.build(); err != nil {
		t.Fatal(err)
	}
	for _, trace := range []bool{false, true} {
		for _, w := range workloadNames {
			start := time.Now()
			res, err := runWorkload(h, w, 1, 0.3, trace)
			t.Logf("%s trace=%v took %s", w, trace, time.Since(start).Round(time.Millisecond))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w, trace, err)
			}
			if !res.correct() {
				res.print(os.Stderr)
				t.Errorf("%s trace=%v: wrong answers", w, trace)
			}
			line := res.contractLine()
			metrics := line["metrics"].(map[string]any)
			for _, d := range metricDefs {
				_, printed := metrics[d.Name]
				if printed != ((d.Layer != "") == trace) {
					t.Errorf("%s trace=%v: metric %s printed=%v", w, trace, d.Name, printed)
				}
				v, measured := res.Metrics[d.Name]
				if !measured {
					continue
				}
				if !d.appliesTo(w) {
					t.Errorf("%s: %s is reported but not defined on this workload", w, d.Name)
				}
				if d.Layer == "" && v.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w, d.Name, v.Value)
				}
			}
		}
	}
	if err := h.writeTrace(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(h.workdir, "trace.json")); err != nil {
		t.Error(err)
	}
}
