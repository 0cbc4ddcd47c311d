package experiments

import (
	"fmt"
	"strings"
)

// WorkResult is the work ledger: what the engine did to answer the
// accuracy judge's queries, corpus by corpus, counted in the engine's own
// units rather than in time. Every counter it renders is fixed by the
// queries, the corpus and the engine's rules — not by the machine, the
// worker count or how the pair queue interleaved — so a change that moves
// no work leaves the rendering unchanged, and a change that saves work
// shows how much. The γ-batch flushes, the γ-memo split and the kernel's
// lanes are left out: which worker meets a slot assignment first decides
// them.
type WorkResult AccuracyResult

// Work runs the accuracy judge (see Accuracy) and keeps its ledger.
func Work(cfg Config) (*WorkResult, error) {
	res, err := Accuracy(cfg)
	if err != nil {
		return nil, err
	}
	return (*WorkResult)(res), nil
}

// String renders the ledger, one counter a line.
func (r *WorkResult) String() string {
	var b strings.Builder
	for _, c := range r.Corpora {
		w := c.Work
		fmt.Fprintf(&b, "Work — %d held-out queries on %s (%d targets, %d unique strands)\n",
			len(c.Queries), c.Label, c.Targets, c.UniqueStrands)
		for _, row := range []struct {
			name string
			n    uint64
		}{
			{"identical pairs", w.VCPPairsIdentical},
			{"forward-dead pairs skipped", w.ForwardDeadPairs},
			{"size-window pairs pruned", w.VCPPairsPruned},
			{"row-cache hits", w.VCPCacheHits},
			{"row-cache misses", w.VCPCacheMisses},
			{"query strands prepared", w.QueryPrepares},
			{"kernel instructions", w.KernelInstrs},
			{"kernel prefix instructions", w.KernelPrefixInstrs},
			{"γ evaluated", w.VerifierCorrespondences},
			{"fingerprint-set probes", w.FPProbes},
		} {
			fmt.Fprintf(&b, "  %-28s %d\n", row.name, row.n)
		}
	}
	return b.String()
}
