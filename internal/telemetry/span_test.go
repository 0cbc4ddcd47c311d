package telemetry

import (
	"context"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSpanTree checks parenting through context and snapshot shape.
func TestSpanTree(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "query")
	cctx, child := StartSpan(ctx, "decompose")
	child.SetAttr("blocks", 4)
	_, grand := StartSpan(cctx, "lift")
	grand.End()
	child.End()
	_, sib := StartSpan(ctx, "vcp")
	sib.AddAttr("pairs", 10)
	sib.AddAttr("pairs", 5)
	sib.End()
	root.End()

	snap := root.Snapshot()
	if snap.Name != "query" || len(snap.Children) != 2 {
		t.Fatalf("root %q with %d children", snap.Name, len(snap.Children))
	}
	dec := snap.Children[0]
	if dec.Name != "decompose" || dec.Attrs["blocks"] != 4 {
		t.Fatalf("decompose child: %+v", dec)
	}
	if len(dec.Children) != 1 || dec.Children[0].Name != "lift" {
		t.Fatalf("grandchild: %+v", dec.Children)
	}
	if snap.Children[1].Attrs["pairs"] != 15 {
		t.Fatalf("AddAttr sum: %+v", snap.Children[1].Attrs)
	}
}

// TestSpanDurations checks that child durations are bounded by the
// parent's when the children are sequential.
func TestSpanDurations(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "root")
	_, a := StartSpan(ctx, "a")
	time.Sleep(5 * time.Millisecond)
	a.End()
	_, b := StartSpan(ctx, "b")
	time.Sleep(5 * time.Millisecond)
	b.End()
	root.End()
	snap := root.Snapshot()
	var childSum float64
	for _, c := range snap.Children {
		childSum += c.DurationMS
	}
	if childSum <= 0 || childSum > snap.DurationMS {
		t.Fatalf("children sum %vms vs root %vms", childSum, snap.DurationMS)
	}
}

// TestDetachedSpan checks that a context without a span starts a new
// tree rather than panicking or attaching anywhere.
func TestDetachedSpan(t *testing.T) {
	_, s := StartSpan(context.Background(), "lone")
	s.End()
	if snap := s.Snapshot(); snap.Name != "lone" || len(snap.Children) != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
}

// TestSpanConcurrentAttrs attaches children and attributes from many
// goroutines (the vcp stage pattern); -race validates the locking.
func TestSpanConcurrentAttrs(t *testing.T) {
	ctx, root := StartSpan(context.Background(), "vcp")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, c := StartSpan(ctx, "row")
			root.AddAttr("hits", 2)
			c.End()
		}()
	}
	wg.Wait()
	root.End()
	snap := root.Snapshot()
	if len(snap.Children) != 8 || snap.Attrs["hits"] != 16 {
		t.Fatalf("children %d attrs %v", len(snap.Children), snap.Attrs)
	}
}

// TestWriteTree smoke-tests the -timings rendering.
func TestWriteTree(t *testing.T) {
	d := &SpanData{
		Name: "query", DurationMS: 3.5,
		Attrs:    map[string]float64{"strands": 7},
		Children: []*SpanData{{Name: "vcp", DurationMS: 2.25}},
	}
	var b strings.Builder
	d.WriteTree(&b)
	out := b.String()
	for _, want := range []string{"query", "3.500ms", "strands=7", "  vcp", "2.250ms"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}
