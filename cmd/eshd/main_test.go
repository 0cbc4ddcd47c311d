package main

import (
	"context"
	"fmt"
	"testing"

	"repro/internal/telemetry"
)

// TestStepAttrs: the "index loaded" line names every step of startup, the
// replay beside the snapshot load's decode and prepare, not only the steps
// of a lone child.
func TestStepAttrs(t *testing.T) {
	ctx, root := telemetry.StartSpan(context.Background(), "startup")
	lctx, load := telemetry.StartSpan(ctx, "index.load")
	for _, name := range []string{"decode", "prepare"} {
		_, sp := telemetry.StartSpan(lctx, name)
		sp.End()
	}
	load.End()
	_, rp := telemetry.StartSpan(ctx, "wal.replay")
	rp.End()
	root.End()

	var keys []string
	attrs := stepAttrs(root.Snapshot())
	for i := 0; i < len(attrs); i += 2 {
		keys = append(keys, attrs[i].(string))
	}
	if got, want := fmt.Sprint(keys), "[decode_ms prepare_ms replay_ms]"; got != want {
		t.Errorf("startup attributes %s, want %s", got, want)
	}
}
