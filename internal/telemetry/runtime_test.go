package telemetry

import (
	"bytes"
	"runtime"
	"testing"
)

// TestRegisterRuntime: the five runtime series render as a strictly
// parseable exposition with the right types, read live values (a name
// the runtime did not know would read 0), and the cycle counter moves
// with a collection.
func TestRegisterRuntime(t *testing.T) {
	reg := NewRegistry()
	RegisterRuntime(reg)
	scrape := func() map[string]*ParsedFamily {
		var buf bytes.Buffer
		if err := reg.WriteText(&buf); err != nil {
			t.Fatal(err)
		}
		fams, err := ParseExposition(&buf)
		if err != nil {
			t.Fatalf("runtime series fail strict parse: %v", err)
		}
		byName := map[string]*ParsedFamily{}
		for _, f := range fams {
			byName[f.Name] = f
		}
		return byName
	}
	runtime.GC() // at least one cycle, so every series has something to report
	before := scrape()
	for name, typ := range map[string]string{
		"esh_go_heap_inuse_bytes":           "gauge",
		"esh_go_heap_released_bytes":        "gauge",
		"esh_go_gc_cycles_total":            "counter",
		"esh_go_gc_pause_cpu_seconds_total": "counter",
		"esh_go_goroutines":                 "gauge",
	} {
		f, ok := before[name]
		if !ok || f.Type != typ || len(f.Samples) != 1 {
			t.Fatalf("%s: %+v, want one %s sample", name, f, typ)
		}
		if v := f.Samples[0].Value; name != "esh_go_heap_released_bytes" && !(v > 0) {
			t.Errorf("%s = %g, want > 0", name, v)
		}
	}
	runtime.GC()
	after := scrape()
	if b, a := before["esh_go_gc_cycles_total"].Samples[0].Value, after["esh_go_gc_cycles_total"].Samples[0].Value; a <= b {
		t.Errorf("gc cycles %g → %g across a collection", b, a)
	}
}
