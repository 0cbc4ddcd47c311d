package telemetry

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestParseExpositionRoundTrip renders a registry with every metric
// kind, parses it strictly, and re-renders the parsed families: the
// second rendering must equal the first (this is the property the
// gateway's federated page relies on).
func TestParseExpositionRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("t_requests_total", "Requests.", "result", "ok").Add(3)
	reg.Counter("t_requests_total", "Requests.", "result", "err").Add(1)
	reg.Gauge("t_temp", "Temperature.").Set(36.5)
	reg.Histogram("t_latency_seconds", "Latency.", []float64{0.1, 1}).Observe(0.5)
	var buf bytes.Buffer
	if err := reg.WriteText(&buf); err != nil {
		t.Fatal(err)
	}
	first := buf.String()

	fams, err := ParseExposition(strings.NewReader(first))
	if err != nil {
		t.Fatalf("strict parse of WriteText output: %v", err)
	}
	if len(fams) != 3 {
		t.Fatalf("parsed %d families, want 3", len(fams))
	}
	if fams[0].Type != "counter" || len(fams[0].Samples) != 2 {
		t.Fatalf("counter family wrong: %+v", fams[0])
	}
	if v, ok := fams[1].Gauge(); !ok || v != 36.5 {
		t.Fatalf("gauge = %v %v", v, ok)
	}
	if fams[2].Type != "histogram" || len(fams[2].Samples) != 5 { // 3 buckets (incl +Inf) + sum + count
		t.Fatalf("histogram family wrong: %+v", fams[2])
	}

	var buf2 bytes.Buffer
	if err := WriteFamilies(&buf2, fams); err != nil {
		t.Fatal(err)
	}
	if buf2.String() != first {
		t.Fatalf("round trip differs:\n--- rendered\n%s--- re-rendered\n%s", first, buf2.String())
	}
}

func TestParseExpositionRejects(t *testing.T) {
	cases := map[string]string{
		"duplicate series": `# TYPE x counter
x{a="1"} 1
x{a="1"} 2
`,
		"duplicate series label order": `# TYPE x counter
x{a="1",b="2"} 1
x{b="2",a="1"} 2
`,
		"help mismatch": `# HELP x one thing
# TYPE x counter
x 1
# HELP x another thing
`,
		"type mismatch": `# TYPE x counter
# TYPE x gauge
x 1
`,
		"type after samples": `x 1
# TYPE x counter
`,
		"unknown type": `# TYPE x widget
x 1
`,
		"non-contiguous family": `# TYPE x counter
# TYPE y counter
x 1
y 1
x{a="2"} 2
`,
		"bucket without le": `# TYPE h histogram
h_bucket 3
`,
		"bad value":           "x pizza\n",
		"no name":             `{a="1"} 3` + "\n",
		"unterminated labels": `x{a="1 3` + "\n",
		"bad timestamp":       "x 1 later\n",
	}
	for name, in := range cases {
		if _, err := ParseExposition(strings.NewReader(in)); err == nil {
			t.Errorf("%s: accepted\n%s", name, in)
		}
	}
}

func TestParseExpositionAccepts(t *testing.T) {
	in := `# a free-form comment
# HELP up help text
# TYPE up gauge
up 1
# TYPE inf_things gauge
inf_things +Inf
esc{path="a\\b\"c\nd"} 5
timestamped 3 1700000000000
`
	fams, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(fams) != 4 {
		t.Fatalf("got %d families: %+v", len(fams), fams)
	}
	if v, _ := fams[2].Samples[0].Label("path"); v != "a\\b\"c\nd" {
		t.Fatalf("escaped label = %q", v)
	}
	if fams[3].Type != "untyped" {
		t.Fatalf("implicit family type = %s", fams[3].Type)
	}
}

func TestWithLabelsAndMerge(t *testing.T) {
	in := `# TYPE q_total counter
q_total{result="ok"} 5
# TYPE lat histogram
lat_bucket{le="+Inf"} 2
lat_sum 0.4
lat_count 2
`
	scraped, err := ParseExposition(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	shard0 := make([]*ParsedFamily, len(scraped))
	for i, f := range scraped {
		shard0[i] = f.WithLabels("shard", "0")
	}
	if v, ok := shard0[0].Samples[0].Label("shard"); !ok || v != "0" {
		t.Fatalf("shard label missing: %+v", shard0[0].Samples[0])
	}
	// Original families must be untouched.
	if _, ok := scraped[0].Samples[0].Label("shard"); ok {
		t.Fatal("WithLabels mutated its receiver")
	}

	own := []*ParsedFamily{
		{Name: "gw_up", Type: "gauge", Samples: []Sample{{Name: "gw_up", Value: 1}}},
		{Name: "q_total", Type: "counter", Samples: []Sample{{Name: "q_total", Value: 9}}},
	}
	merged, dropped := MergeFamilies(own, shard0)
	if len(dropped) != 0 {
		t.Fatalf("dropped %v", dropped)
	}
	if len(merged) != 3 {
		t.Fatalf("merged %d families, want 3", len(merged))
	}
	// q_total collided by name+type: samples appended under one family.
	if len(merged[1].Samples) != 2 {
		t.Fatalf("q_total merge: %+v", merged[1])
	}
	var buf bytes.Buffer
	if err := WriteFamilies(&buf, merged); err != nil {
		t.Fatal(err)
	}
	// The merged page must itself parse strictly (lint-clean federation).
	if _, err := ParseExposition(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("merged page fails strict parse: %v\n%s", err, buf.String())
	}

	// A type conflict drops the scraped family, never the base one.
	conflict := []*ParsedFamily{{Name: "gw_up", Type: "counter",
		Samples: []Sample{{Name: "gw_up", Value: 4}}}}
	merged2, dropped2 := MergeFamilies(own[:1], conflict)
	if len(dropped2) != 1 || dropped2[0] != "gw_up" || len(merged2) != 1 || len(merged2[0].Samples) != 1 {
		t.Fatalf("type conflict handling: merged=%+v dropped=%v", merged2, dropped2)
	}

	// MergeFamilies must not mutate persistent scraped state across
	// renders: merging twice into fresh bases keeps sample counts stable.
	freshOwn := func() []*ParsedFamily {
		return []*ParsedFamily{{Name: "gw_up", Type: "gauge", Samples: []Sample{{Name: "gw_up", Value: 1}}}}
	}
	m1, _ := MergeFamilies(freshOwn(), shard0)
	m2, _ := MergeFamilies(freshOwn(), shard0)
	if len(m1[1].Samples) != len(m2[1].Samples) {
		t.Fatalf("repeated merge grew scraped family: %d vs %d", len(m1[1].Samples), len(m2[1].Samples))
	}
}

// TestParseExpositionLinearAllocs parses one family of n labelled series
// at two sizes: the allocations per series must not grow with n, as they
// do when each sample is checked for duplicates against every earlier
// one.
func TestParseExpositionLinearAllocs(t *testing.T) {
	perSeries := func(n int) float64 {
		var b strings.Builder
		b.WriteString("# HELP t_hits_total Hits.\n# TYPE t_hits_total counter\n")
		for i := range n {
			fmt.Fprintf(&b, "t_hits_total{path=\"/v1/q\\\"%d\\\"\",shard=\"%d\"} %d\n", i, i%4, i)
		}
		page := b.String()
		return testing.AllocsPerRun(5, func() {
			fams, err := ParseExposition(strings.NewReader(page))
			if err != nil || len(fams) != 1 || len(fams[0].Samples) != n {
				t.Fatalf("n=%d: %d families, err %v", n, len(fams), err)
			}
		}) / float64(n)
	}
	small, large := perSeries(100), perSeries(1000)
	if large > small {
		t.Fatalf("allocations per series grow with the page: %.2f at 100 series, %.2f at 1,000", small, large)
	}
	t.Logf("allocations per series: %.2f at 100, %.2f at 1,000", small, large)
}
