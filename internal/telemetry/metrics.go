// Package telemetry is the observability layer of the engine: a
// dependency-free metrics registry (atomic counters, gauges and
// histograms with Prometheus text-format exposition) plus lightweight
// span-based tracing for per-query stage breakdowns. Everything here is
// stdlib-only and cheap enough to leave enabled on the query hot path;
// per-pair work is aggregated locally and flushed to metrics once per
// stage, never per strand pair.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is
// usable, but counters are normally obtained from a Registry so they
// appear in the exposition.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a metric that can go up and down. Stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the gauge by delta (CAS loop; gauges are not hot-path).
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + delta)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into fixed cumulative buckets and keeps
// a running sum, matching the Prometheus histogram model. Observe is
// lock-free: bucket counts are atomic and the sum is a CAS-updated
// float64.
type Histogram struct {
	bounds  []float64 // upper bounds, ascending; +Inf is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// DefBuckets is the default duration histogram (seconds), spanning
// 1ms .. 10s like the Prometheus client default but extended downward
// for sub-millisecond pipeline stages.
var DefBuckets = []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}

func newHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		bounds = DefBuckets
	}
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bound >= v; the last slot is +Inf.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Snapshot returns the bucket upper bounds and the per-bucket
// (non-cumulative) counts; the final count is the +Inf overflow bucket.
func (h *Histogram) Snapshot() (bounds []float64, counts []uint64) {
	counts = make([]uint64, len(h.buckets))
	for i := range h.buckets {
		counts[i] = h.buckets[i].Load()
	}
	return h.bounds, counts
}

// metric is one sample within a family: a label set plus a value source.
type metric struct {
	labels string // rendered {k="v",...} suffix, "" when unlabeled
	c      *Counter
	g      *Gauge
	gf     func() float64
	h      *Histogram
}

// family groups samples sharing a name, help text, and type.
type family struct {
	name, help, typ string
	metrics         map[string]*metric // by rendered label string
	order           []string           // label strings in registration order
}

// Registry holds metric families and renders them in Prometheus text
// format. Registration is get-or-create: asking twice for the same
// name+labels returns the same metric, so package-level instrumentation
// and multiple server instances can share counters safely.
type Registry struct {
	mu       sync.Mutex
	families map[string]*family
	order    []string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

var defaultOnce sync.Once
var defaultReg *Registry

// Default returns the process-wide registry used by package-level
// instrumentation (index load/save timings and the like).
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = NewRegistry() })
	return defaultReg
}

// renderLabels turns k1,v1,k2,v2 pairs into a deterministic
// {k1="v1",k2="v2"} suffix with Prometheus escaping.
func renderLabels(kv []string) string {
	if len(kv) == 0 {
		return ""
	}
	if len(kv)%2 != 0 {
		panic("telemetry: odd label list (want k1, v1, k2, v2, ...)")
	}
	type pair struct{ k, v string }
	pairs := make([]pair, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		pairs = append(pairs, pair{kv[i], kv[i+1]})
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i].k < pairs[j].k })
	var b strings.Builder
	b.WriteByte('{')
	for i, p := range pairs {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(p.k)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(p.v))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// get returns the family, creating it with the given type, and the
// sample for the label set (creating it via mk). It panics if the name
// is reused with a different metric type — that is a programming error.
func (r *Registry) get(name, help, typ string, labels []string, mk func() *metric) *metric {
	ls := renderLabels(labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[name]
	if f == nil {
		f = &family{name: name, help: help, typ: typ, metrics: map[string]*metric{}}
		r.families[name] = f
		r.order = append(r.order, name)
	}
	if f.typ != typ {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s and %s", name, f.typ, typ))
	}
	m := f.metrics[ls]
	if m == nil {
		m = mk()
		m.labels = ls
		f.metrics[ls] = m
		f.order = append(f.order, ls)
	}
	return m
}

// Counter returns the counter for name+labels, registering it on first
// use. Labels are alternating key, value pairs.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.get(name, help, "counter", labels, func() *metric { return &metric{c: &Counter{}} })
	if m.c == nil {
		panic("telemetry: " + name + " is not a counter")
	}
	return m.c
}

// Gauge returns the gauge for name+labels, registering it on first use.
func (r *Registry) Gauge(name, help string, labels ...string) *Gauge {
	m := r.get(name, help, "gauge", labels, func() *metric { return &metric{g: &Gauge{}} })
	if m.g == nil {
		panic("telemetry: " + name + " is not a settable gauge")
	}
	return m.g
}

// GaugeFunc registers a gauge whose value is computed at scrape time.
// Re-registering the same name+labels replaces the function.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...string) {
	m := r.get(name, help, "gauge", labels, func() *metric { return &metric{} })
	m.gf = fn
}

// CounterFunc registers a counter whose value is read at scrape time
// from a monotonic count kept elsewhere.
func (r *Registry) CounterFunc(name, help string, fn func() float64, labels ...string) {
	m := r.get(name, help, "counter", labels, func() *metric { return &metric{} })
	m.gf = fn
}

// Histogram returns the histogram for name+labels, registering it on
// first use with the given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	m := r.get(name, help, "histogram", labels, func() *metric { return &metric{h: newHistogram(bounds)} })
	if m.h == nil {
		panic("telemetry: " + name + " is not a histogram")
	}
	return m.h
}

// ftoa renders a float the way Prometheus expects (shortest round-trip,
// +Inf spelled "+Inf").
func ftoa(f float64) string {
	if math.IsInf(f, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// WriteText renders every family in Prometheus text exposition format
// (version 0.0.4). Families appear in registration order; samples within
// a family in registration order, which keeps output stable for golden
// tests and scrape diffing.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.Lock()
	names := append([]string(nil), r.order...)
	fams := make([]*family, len(names))
	for i, n := range names {
		fams[i] = r.families[n]
	}
	r.mu.Unlock()

	for _, f := range fams {
		if f.help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, ls := range f.order {
			m := f.metrics[ls]
			var err error
			switch {
			case m.c != nil:
				_, err = fmt.Fprintf(w, "%s%s %d\n", f.name, ls, m.c.Value())
			case m.gf != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, ls, ftoa(m.gf()))
			case m.g != nil:
				_, err = fmt.Fprintf(w, "%s%s %s\n", f.name, ls, ftoa(m.g.Value()))
			case m.h != nil:
				err = writeHistogram(w, f.name, ls, m.h)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeHistogram renders the cumulative _bucket series plus _sum and
// _count. Extra labels are merged with the le label.
func writeHistogram(w io.Writer, name, labels string, h *Histogram) error {
	bounds, counts := h.Snapshot()
	withLe := func(le string) string {
		if labels == "" {
			return `{le="` + le + `"}`
		}
		return strings.TrimSuffix(labels, "}") + `,le="` + le + `"}`
	}
	var cum uint64
	for i, b := range bounds {
		cum += counts[i]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe(ftoa(b)), cum); err != nil {
			return err
		}
	}
	cum += counts[len(counts)-1]
	if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", name, withLe("+Inf"), cum); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", name, labels, ftoa(h.Sum())); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", name, labels, h.Count())
	return err
}
