package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func mkRecord(id string, ms float64) *QueryRecord {
	return &QueryRecord{ID: id, Kind: "query", Start: time.Now(), DurationMS: ms,
		Outcome: "completed", Trace: &SpanData{Name: "query", DurationMS: ms}}
}

func TestRecorderSequentialWraparound(t *testing.T) {
	r := NewRecorder(8, 4, 0)
	for i := 0; i < 20; i++ {
		r.Record(mkRecord(fmt.Sprint(i), 1))
	}
	if r.Total() != 20 {
		t.Fatalf("total = %d, want 20", r.Total())
	}
	recent := r.Recent(0)
	if len(recent) != 8 {
		t.Fatalf("ring holds %d records, want 8", len(recent))
	}
	// Newest first: 19, 18, ..., 12.
	for k, rec := range recent {
		if want := fmt.Sprint(19 - k); rec.ID != want {
			t.Fatalf("recent[%d] = %s, want %s", k, rec.ID, want)
		}
	}
	if got := r.Recent(3); len(got) != 3 || got[0].ID != "19" {
		t.Fatalf("Recent(3) = %v", got)
	}
}

func TestRecorderSlowCapture(t *testing.T) {
	r := NewRecorder(16, 4, 10*time.Millisecond)
	fast := mkRecord("fast", 1)
	slow := mkRecord("slow", 50)
	if r.Record(fast) {
		t.Fatal("1ms record classified slow at a 10ms threshold")
	}
	if !r.Record(slow) {
		t.Fatal("50ms record not classified slow at a 10ms threshold")
	}
	if fast.Trace != nil {
		t.Fatal("fast record kept its trace")
	}
	if slow.Trace == nil {
		t.Fatal("slow record lost its trace")
	}
	got := r.Slow()
	if len(got) != 1 || got[0].ID != "slow" || !got[0].Slow {
		t.Fatalf("Slow() = %+v", got)
	}
	if r.SlowTotal() != 1 {
		t.Fatalf("SlowTotal = %d", r.SlowTotal())
	}
	// Threshold 0 disables slow capture entirely.
	if off := NewRecorder(16, 4, 0); off.Record(mkRecord("later", 500)) || off.SlowTotal() != 0 {
		t.Fatal("slow capture active at threshold 0")
	}
}

// TestRecorderConcurrentWraparound hammers a small ring from parallel
// writers (run under -race in CI): every published slot must hold one
// of the written records, the total must be exact, and a reader racing
// the writers must never crash or see a torn record.
func TestRecorderConcurrentWraparound(t *testing.T) {
	const writers, perWriter = 8, 500
	r := NewRecorder(32, 8, time.Nanosecond) // everything is "slow": exercises both rings
	valid := make(map[string]bool, writers*perWriter)
	var mu sync.Mutex
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(1)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, rec := range r.Recent(0) {
				_ = rec.ID
				_ = rec.DurationMS
			}
			for _, rec := range r.Slow() {
				_ = rec.Trace
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				mu.Lock()
				valid[id] = true
				mu.Unlock()
				r.Record(mkRecord(id, float64(i)))
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	if r.Total() != writers*perWriter {
		t.Fatalf("total = %d, want %d", r.Total(), writers*perWriter)
	}
	recent := r.Recent(0)
	if len(recent) != 32 {
		t.Fatalf("ring holds %d records after saturation, want 32", len(recent))
	}
	for _, rec := range recent {
		if !valid[rec.ID] {
			t.Fatalf("ring holds unknown record %q", rec.ID)
		}
	}
	for _, rec := range r.Slow() {
		if !valid[rec.ID] || rec.Trace == nil {
			t.Fatalf("slow ring corrupt: %+v", rec)
		}
	}
}

func TestFillFromTrace(t *testing.T) {
	root := &SpanData{
		Name: "query", DurationMS: 12.5,
		Children: []*SpanData{
			{Name: "decompose", DurationMS: 1.25},
			{Name: "prepare", DurationMS: 0.5},
			{Name: "vcp", DurationMS: 10, Attrs: map[string]float64{
				"pairs": 100, "pairs_pruned": 40, "verifier_calls": 30,
				"cache_hits": 10, "cache_misses": 20, "correspondences": 900,
				"kernel_nanos": 2.5e6, "lsh_skipped": 15, "memo_hits": 850, "rows_complete": 7,
			}},
			{Name: "score", DurationMS: 0.25},
		},
	}
	rec := &QueryRecord{ID: "x", Kind: "query"}
	rec.FillFromTrace(root)
	if rec.DurationMS != 12.5 || rec.Trace != root {
		t.Fatalf("duration/trace not adopted: %+v", rec)
	}
	if rec.StageMS["vcp"] != 10 || rec.StageMS["decompose"] != 1.25 {
		t.Fatalf("stage breakdown wrong: %v", rec.StageMS)
	}
	if rec.Pairs != 100 || rec.PairsPruned != 40 || rec.VerifierCalls != 30 ||
		rec.CacheHits != 10 || rec.CacheMisses != 20 || rec.Correspondences != 900 ||
		rec.PairsSkipped != 15 || rec.KernelMS != 2.5 || rec.MemoHits != 850 || rec.RowsComplete != 7 {
		t.Fatalf("counters wrong: %+v", rec)
	}
}
