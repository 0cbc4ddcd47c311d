package server

import (
	"sync"

	"repro/internal/core"
	"repro/internal/fifo"
	"repro/internal/telemetry"
)

// planMemoBudget bounds what the plan memo is charged: request texts plus
// core.QueryPlan.Bytes of their plans. A constant, not a setting: an entry
// is 10–50 KB for the corpus's procedures, so it covers a hot set of several
// hundred, and below a workload's hot set the cost is re-planning, never a
// different answer. An entry above planMemoMaxEntry is not admitted: the
// text is the client's (up to maxBodyBytes), and one such body must not
// flush the procedures worth keeping.
const (
	planMemoBudget   = 16 << 20
	planMemoMaxEntry = planMemoBudget / 8
)

// planMemo maps a request's asm text to the plan built from it: a
// fifo.Store under planMemoBudget. The store's map does the hashing and the
// full-text equality: two texts share a plan only if they are the same
// bytes. Only a text that parsed and decomposed gets in, and nothing on the
// write path comes near it.
type planMemo struct {
	mu    sync.Mutex
	plans *fifo.Store[string, *core.QueryPlan]

	hits, misses *telemetry.Counter
}

func (m *planMemo) init(reg *telemetry.Registry) {
	m.plans = fifo.New[string, *core.QueryPlan](planMemoBudget)
	m.hits = reg.Counter("esh_plan_memo_hits_total", "Queries whose plan (pipeline stages 1-2) came from the plan memo: no parse, no decompose.")
	m.misses = reg.Counter("esh_plan_memo_misses_total", "Queries whose request text the plan memo did not hold.")
	reg.CounterFunc("esh_plan_memo_evictions_total", "Plans dropped, oldest first, to keep esh_plan_memo_bytes within budget.",
		func() float64 { return float64(m.stats().Evictions) })
	reg.GaugeFunc("esh_plan_memo_bytes", "Bytes charged to the plan memo (request texts plus plan estimates); never above its fixed budget.",
		func() float64 { return float64(m.stats().Held) })
}

func (m *planMemo) stats() fifo.Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.plans.Stats()
}

// get returns the plan memoized for text, or nil.
func (m *planMemo) get(text string) *core.QueryPlan {
	m.mu.Lock()
	pl, _ := m.plans.Get(text)
	m.mu.Unlock()
	if pl == nil {
		m.misses.Inc()
	} else {
		m.hits.Inc()
	}
	return pl
}

// put memoizes pl for text unless the entry is too large to admit or a
// concurrent request of the same text got there first.
func (m *planMemo) put(text string, pl *core.QueryPlan) {
	cost := len(text) + pl.Bytes()
	if cost > planMemoMaxEntry {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.plans.Get(text); !ok {
		m.plans.Put(text, pl, int64(cost))
	}
}
