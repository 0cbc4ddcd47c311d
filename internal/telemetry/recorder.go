package telemetry

import (
	"sync/atomic"
	"time"
)

// QueryRecord is one query's entry in the flight recorder: the
// structured evidence every query leaves behind whether or not the
// caller asked for a trace. Records are immutable once handed to
// Recorder.Record, which is what makes the ring lock-free.
type QueryRecord struct {
	// ID is the request ID the serving layer assigned (the same token
	// in the X-Request-ID header and the request log line).
	ID string `json:"request_id"`
	// Kind is the query surface: "query", "partial" (shard-local), or
	// "gateway" (fan-out merge).
	Kind string `json:"kind"`
	// Start is when the engine (or fan-out) began; DurationMS its wall
	// time.
	Start      time.Time `json:"start"`
	DurationMS float64   `json:"duration_ms"`
	// Outcome is the terminal result label: completed, failure,
	// timeout, partial.
	Outcome string `json:"outcome"`
	Err     string `json:"error,omitempty"`
	// Generation / Retrieval pin the corpus and engine configuration the
	// query ran under.
	Generation string `json:"generation,omitempty"`
	Retrieval  string `json:"retrieval,omitempty"`
	// StageMS breaks the duration down by pipeline stage (decompose,
	// prepare, vcp, score — or shard_N legs at the gateway).
	StageMS map[string]float64 `json:"stage_ms,omitempty"`
	// Work counters, extracted from the span attributes the engine
	// accumulates per query (zero when the stage never ran).
	Pairs           int64   `json:"pairs,omitempty"`
	PairsPruned     int64   `json:"pairs_pruned,omitempty"`
	PairsSkipped    int64   `json:"pairs_skipped,omitempty"`
	VerifierCalls   int64   `json:"verifier_calls,omitempty"`
	Correspondences int64   `json:"correspondences,omitempty"`
	CacheHits       int64   `json:"cache_hits,omitempty"`
	CacheMisses     int64   `json:"cache_misses,omitempty"`
	RowsComplete    int64   `json:"rows_complete,omitempty"`
	KernelMS        float64 `json:"kernel_ms,omitempty"`
	GammaBatches    int64   `json:"gamma_batches,omitempty"`
	GammaBatchRows  int64   `json:"gamma_batch_rows,omitempty"`
	MemoHits        int64   `json:"memo_hits,omitempty"`
	// Shards holds the per-shard fan-out outcomes of a gateway query.
	Shards []ShardOutcome `json:"shards,omitempty"`
	// Slow marks records at or above the recorder's threshold; only
	// those retain Trace, the full span tree.
	Slow  bool      `json:"slow,omitempty"`
	Trace *SpanData `json:"trace,omitempty"`
}

// ShardOutcome is one shard's contribution to a gateway query: which
// replica answered, how long it took, and how hard the gateway had to
// work for it.
type ShardOutcome struct {
	Shard    int     `json:"shard"`
	Replica  string  `json:"replica,omitempty"`
	Millis   float64 `json:"millis"`
	Attempts int     `json:"attempts,omitempty"`
	Hedged   bool    `json:"hedged,omitempty"`
	Err      string  `json:"error,omitempty"`
}

// spanCounters maps the engine's span attribute names to QueryRecord
// counter fields.
func (rec *QueryRecord) adoptAttrs(attrs map[string]float64) {
	for k, v := range attrs {
		switch k {
		case "pairs":
			rec.Pairs += int64(v)
		case "pairs_pruned":
			rec.PairsPruned += int64(v)
		case "lsh_skipped":
			rec.PairsSkipped += int64(v)
		case "verifier_calls":
			rec.VerifierCalls += int64(v)
		case "correspondences":
			rec.Correspondences += int64(v)
		case "cache_hits":
			rec.CacheHits += int64(v)
		case "cache_misses":
			rec.CacheMisses += int64(v)
		case "rows_complete":
			rec.RowsComplete += int64(v)
		case "kernel_nanos":
			rec.KernelMS += v / 1e6
		case "gamma_batches":
			rec.GammaBatches += int64(v)
		case "gamma_batch_rows":
			rec.GammaBatchRows += int64(v)
		case "memo_hits":
			rec.MemoHits += int64(v)
		}
	}
}

// FillFromTrace populates duration, per-stage timings, and work
// counters from a snapshotted span tree (the engine's root query span).
// The trace is attached to the record; Recorder.Record drops it again
// for fast queries, which is what makes slow-query capture retroactive:
// the tree is always built, but only slow records keep it.
func (rec *QueryRecord) FillFromTrace(root *SpanData) {
	if root == nil {
		return
	}
	rec.Trace = root
	rec.DurationMS = root.DurationMS
	if len(root.Children) > 0 {
		rec.StageMS = make(map[string]float64, len(root.Children))
	}
	for _, c := range root.Children {
		rec.StageMS[c.Name] += c.DurationMS
		rec.adoptAttrs(c.Attrs)
	}
	rec.adoptAttrs(root.Attrs)
}

// Recorder is the always-on query flight recorder: a fixed-size ring of
// the most recent QueryRecords plus a smaller ring of slow ones. Writes
// are two atomic ops (claim a slot, publish the pointer), so recording
// costs nanoseconds next to a query; readers snapshot by walking the
// ring backwards from the write cursor. Under concurrent writes a
// reader can observe slots slightly out of claim order — records are
// evidence, not a WAL, and each one is internally consistent.
type Recorder struct {
	slots []atomic.Pointer[QueryRecord]
	next  atomic.Uint64

	slowSlots []atomic.Pointer[QueryRecord]
	slowNext  atomic.Uint64

	// threshold gates the slow path; <= 0 disables slow capture.
	threshold time.Duration
}

// Ring-size defaults: DefaultRecorderSize bounds the main ring (a few
// hundred KB of records), DefaultSlowLogSize the retained slow queries.
const (
	DefaultRecorderSize = 512
	DefaultSlowLogSize  = 64
)

// NewRecorder builds a recorder with the given ring sizes (values <= 0
// select the defaults) and slow-query threshold (<= 0 disables slow
// capture; every record still lands in the main ring, trace-stripped).
func NewRecorder(size, slowSize int, threshold time.Duration) *Recorder {
	if size <= 0 {
		size = DefaultRecorderSize
	}
	if slowSize <= 0 {
		slowSize = DefaultSlowLogSize
	}
	return &Recorder{
		slots:     make([]atomic.Pointer[QueryRecord], size),
		slowSlots: make([]atomic.Pointer[QueryRecord], slowSize),
		threshold: threshold,
	}
}

// SlowThreshold returns the slow-query threshold (0 = disabled).
func (r *Recorder) SlowThreshold() time.Duration { return max(r.threshold, 0) }

// Record classifies rec against the slow threshold, strips the trace
// from fast records, and publishes rec into the ring(s). It reports
// whether rec was slow, so the caller can emit a structured log line.
// rec must not be mutated afterwards.
func (r *Recorder) Record(rec *QueryRecord) (slow bool) {
	slow = r.threshold > 0 && rec.DurationMS*1e6 >= float64(r.threshold)
	rec.Slow = slow
	if !slow {
		rec.Trace = nil
	}
	i := r.next.Add(1) - 1
	r.slots[i%uint64(len(r.slots))].Store(rec)
	if slow {
		j := r.slowNext.Add(1) - 1
		r.slowSlots[j%uint64(len(r.slowSlots))].Store(rec)
	}
	return slow
}

// Total returns how many records have ever been published; SlowTotal
// how many of them were slow. Totals keep counting after the rings wrap.
func (r *Recorder) Total() uint64     { return r.next.Load() }
func (r *Recorder) SlowTotal() uint64 { return r.slowNext.Load() }

// Recent returns up to n of the most recent records, newest first.
// n <= 0 returns the whole ring.
func (r *Recorder) Recent(n int) []*QueryRecord {
	return collect(r.slots, r.next.Load(), n)
}

// Slow returns the retained slow-query records, newest first.
func (r *Recorder) Slow() []*QueryRecord {
	return collect(r.slowSlots, r.slowNext.Load(), -1)
}

// collect walks a ring backwards from the write cursor, skipping slots
// a concurrent writer has claimed but not yet published.
func collect(slots []atomic.Pointer[QueryRecord], cursor uint64, n int) []*QueryRecord {
	size := uint64(len(slots))
	avail := cursor
	if avail > size {
		avail = size
	}
	if n > 0 && uint64(n) < avail {
		avail = uint64(n)
	}
	out := make([]*QueryRecord, 0, avail)
	for k := uint64(0); k < avail; k++ {
		if rec := slots[(cursor-1-k)%size].Load(); rec != nil {
			out = append(out, rec)
		}
	}
	return out
}
