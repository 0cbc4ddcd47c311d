package telemetry

import "runtime/metrics"

// RegisterRuntime adds the Go runtime's own health series to r, read
// from runtime/metrics at scrape time: whether the process — not a
// query — is the slow part (a collector running back to back, a heap
// that was never returned, goroutines piling up) is otherwise only
// visible in an execution trace. Both daemons call it once on the
// registry their /metrics serves.
func RegisterRuntime(r *Registry) {
	// read sums the named runtime metrics; a name this runtime does not
	// know reads as 0.
	read := func(names ...string) func() float64 {
		return func() float64 {
			samples := make([]metrics.Sample, len(names))
			for i, n := range names {
				samples[i].Name = n
			}
			metrics.Read(samples)
			var sum float64
			for _, s := range samples {
				switch s.Value.Kind() {
				case metrics.KindUint64:
					sum += float64(s.Value.Uint64())
				case metrics.KindFloat64:
					sum += s.Value.Float64()
				}
			}
			return sum
		}
	}
	r.GaugeFunc("esh_go_heap_inuse_bytes", "Bytes in heap spans that hold objects (live, dead-but-unswept, and the spans' free slots): runtime.MemStats.HeapInuse.",
		read("/memory/classes/heap/objects:bytes", "/memory/classes/heap/unused:bytes"))
	r.GaugeFunc("esh_go_heap_released_bytes", "Heap bytes returned to the operating system.",
		read("/memory/classes/heap/released:bytes"))
	r.CounterFunc("esh_go_gc_cycles_total", "Completed garbage collection cycles.",
		read("/gc/cycles/total:gc-cycles"))
	r.CounterFunc("esh_go_gc_pause_cpu_seconds_total", "CPU seconds the application spent stopped by the collector: each stop-the-world pause times GOMAXPROCS.",
		read("/cpu/classes/gc/pause:cpu-seconds"))
	r.GaugeFunc("esh_go_goroutines", "Live goroutines.",
		read("/sched/goroutines:goroutines"))
}
