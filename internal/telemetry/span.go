package telemetry

import (
	"context"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed region of work within a trace tree. Spans are
// created with StartSpan, which parents them under the span carried by
// the context (if any), so a query produces a stage-by-stage breakdown
// without any global state. Spans are safe for concurrent use: parallel
// workers may attach attributes to a shared stage span.
type Span struct {
	name  string
	start time.Time

	mu       sync.Mutex
	end      time.Time // zero until End
	attrs    map[string]float64
	order    []string // attr keys in first-set order
	children []*Span
	remote   []*SpanData // subtrees grafted from other processes
}

type spanKey struct{}

// StartSpan begins a span named name. If ctx carries a span, the new
// span is registered as its child; otherwise it starts a new detached
// tree (the common case for instrumented library code called without a
// trace — the tree is simply garbage once the caller drops it). The
// returned context carries the new span for further nesting.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	s := &Span{name: name, start: time.Now()}
	if parent, ok := ctx.Value(spanKey{}).(*Span); ok && parent != nil {
		parent.mu.Lock()
		parent.children = append(parent.children, s)
		parent.mu.Unlock()
	}
	return context.WithValue(ctx, spanKey{}, s), s
}

// End marks the span finished and returns its duration. Calling End
// twice keeps the first end time.
func (s *Span) End() time.Duration {
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = time.Now()
	}
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	return d
}

// Duration returns the elapsed time so far (or the final duration once
// ended).
func (s *Span) Duration() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.end.IsZero() {
		return time.Since(s.start)
	}
	return s.end.Sub(s.start)
}

// Name returns the span name.
func (s *Span) Name() string { return s.name }

// SetAttr records a numeric attribute on the span (counts, sizes).
func (s *Span) SetAttr(key string, v float64) {
	s.mu.Lock()
	s.setLocked(key, v)
	s.mu.Unlock()
}

// AddAttr accumulates into a numeric attribute; parallel workers use it
// to sum their local counts into a shared stage span.
func (s *Span) AddAttr(key string, delta float64) {
	s.mu.Lock()
	if s.attrs == nil {
		s.setLocked(key, delta)
	} else if _, ok := s.attrs[key]; ok {
		s.attrs[key] += delta
	} else {
		s.setLocked(key, delta)
	}
	s.mu.Unlock()
}

func (s *Span) setLocked(key string, v float64) {
	if s.attrs == nil {
		s.attrs = map[string]float64{}
	}
	if _, ok := s.attrs[key]; !ok {
		s.order = append(s.order, key)
	}
	s.attrs[key] = v
}

// AttachRemote grafts an already-snapshotted span tree from another
// process under this span — how a gateway stitches each shard's
// server-side trace into its fan-out tree. nil is ignored. Remote
// subtrees appear after local children in Snapshot output.
func (s *Span) AttachRemote(d *SpanData) {
	if d == nil {
		return
	}
	s.mu.Lock()
	s.remote = append(s.remote, d)
	s.mu.Unlock()
}

// SpanData is the exported, JSON-friendly form of a span tree.
type SpanData struct {
	Name       string             `json:"name"`
	DurationMS float64            `json:"duration_ms"`
	Attrs      map[string]float64 `json:"attrs,omitempty"`
	Children   []*SpanData        `json:"children,omitempty"`
}

// Snapshot copies the span tree into SpanData. Unended spans report
// their elapsed time so far.
func (s *Span) Snapshot() *SpanData {
	s.mu.Lock()
	d := s.end.Sub(s.start)
	if s.end.IsZero() {
		d = time.Since(s.start)
	}
	out := &SpanData{
		Name:       s.name,
		DurationMS: float64(d.Microseconds()) / 1000,
	}
	if len(s.attrs) > 0 {
		out.Attrs = make(map[string]float64, len(s.attrs))
		for k, v := range s.attrs {
			out.Attrs[k] = v
		}
	}
	children := append([]*Span(nil), s.children...)
	remote := append([]*SpanData(nil), s.remote...)
	s.mu.Unlock()
	for _, c := range children {
		out.Children = append(out.Children, c.Snapshot())
	}
	out.Children = append(out.Children, remote...)
	return out
}

// Find returns the first node named name in a depth-first walk of the
// tree (the receiver included), or nil. The flight recorder uses it to
// pull per-query engine attributes off a known stage span.
func (d *SpanData) Find(name string) *SpanData {
	if d == nil {
		return nil
	}
	if d.Name == name {
		return d
	}
	for _, c := range d.Children {
		if hit := c.Find(name); hit != nil {
			return hit
		}
	}
	return nil
}

// WriteTree pretty-prints the span tree as an indented breakdown, the
// format behind esh -timings.
func (d *SpanData) WriteTree(w io.Writer) {
	d.writeTree(w, 0)
}

func (d *SpanData) writeTree(w io.Writer, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%-*s %10.3fms", indent, 24-2*depth, d.Name, d.DurationMS)
	if len(d.Attrs) > 0 {
		keys := make([]string, 0, len(d.Attrs))
		for k := range d.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		parts := make([]string, len(keys))
		for i, k := range keys {
			parts[i] = fmt.Sprintf("%s=%g", k, d.Attrs[k])
		}
		fmt.Fprintf(w, "  (%s)", strings.Join(parts, " "))
	}
	fmt.Fprintln(w)
	for _, c := range d.Children {
		c.writeTree(w, depth+1)
	}
}
