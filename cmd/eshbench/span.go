package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call eshbench made into a layer: its name, when it
// started and ended (ns since the log's first span), the span that
// caused it, and the request it belongs to. Server-side work shows up
// as the ?trace=1 span tree attached to the request's span.
type span struct {
	ID      int                 `json:"id"`
	Parent  int                 `json:"parent,omitempty"`
	Request string              `json:"request,omitempty"`
	Name    string              `json:"name"`
	StartNS int64               `json:"start_ns"`
	EndNS   int64               `json:"end_ns"`
	Server  *telemetry.SpanData `json:"server,omitempty"`

	log *spanLog
}

// spanLog keeps spans in memory until the run ends; recording is off
// unless the run is traced, so the untraced run pays one branch.
type spanLog struct {
	mu    sync.Mutex
	on    bool
	epoch time.Time
	spans []*span
}

func (l *spanLog) enable() {
	l.mu.Lock()
	l.on, l.epoch = true, time.Now()
	l.mu.Unlock()
}

// start opens a span; the zero parent means a root. With recording off
// it returns nil, and end on a nil span is a no-op.
func (l *spanLog) start(name, request string, parent int) *span {
	l.mu.Lock()
	defer l.mu.Unlock()
	if !l.on {
		return nil
	}
	s := &span{ID: len(l.spans) + 1, Parent: parent, Request: request, Name: name, StartNS: time.Since(l.epoch).Nanoseconds(), log: l}
	l.spans = append(l.spans, s)
	return s
}

func (s *span) end() time.Duration {
	if s == nil {
		return 0
	}
	s.log.mu.Lock()
	defer s.log.mu.Unlock()
	s.EndNS = time.Since(s.log.epoch).Nanoseconds()
	return time.Duration(s.EndNS - s.StartNS)
}

func (s *span) id() int {
	if s == nil {
		return 0
	}
	return s.ID
}

// attach hangs a server-side span tree under the span.
func (s *span) attach(d *telemetry.SpanData) {
	if s == nil {
		return
	}
	s.log.mu.Lock()
	s.Server = d
	s.log.mu.Unlock()
}

// selfMS is a span tree node's self time: its duration minus the part
// its children cover.
func selfMS(d *telemetry.SpanData) float64 {
	self := d.DurationMS
	for _, c := range d.Children {
		self -= c.DurationMS
	}
	return max(self, 0)
}

// writeTrace writes every recorded span, with each one's self time, to
// trace.json in the workdir.
func (h *harness) writeTrace() error {
	l := h.spans
	l.mu.Lock()
	defer l.mu.Unlock()
	childNS := make(map[int]int64, len(l.spans))
	for _, s := range l.spans {
		childNS[s.Parent] += s.EndNS - s.StartNS
	}
	type row struct {
		*span
		SelfNS int64 `json:"self_ns"`
	}
	rows := make([]row, len(l.spans))
	for i, s := range l.spans {
		rows[i] = row{span: s, SelfNS: max(s.EndNS-s.StartNS-childNS[s.ID], 0)}
	}
	data, err := json.MarshalIndent(map[string]any{"stamp": h.stamp.String(), "spans": rows}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(h.workdir, "trace.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("trace: %d spans written to %s\n", len(rows), path)
	return nil
}
