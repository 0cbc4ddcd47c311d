package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// runWorkload runs one workload once and returns what it measured.
func runWorkload(h *harness, name string, seed int64, seconds float64, trace bool) (*result, error) {
	if trace {
		h.spans.enable()
	}
	root := h.spans.start("workload."+name, "", 0)
	defer root.end()
	sp := h.spans.start("generate", "", root.id())
	in, err := generate(seed, seconds, name, h.sz)
	sp.end()
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(h.tmp, name+"-")
	if err != nil {
		return nil, err
	}
	dep, err := newDeployment(h, name, dir)
	if err != nil {
		return nil, err
	}
	defer dep.down()
	res := newResult(h, name, seed, trace)
	w := &workloadRun{h: h, in: in, dep: dep, res: res, seconds: seconds, trace: trace, root: root.id()}
	if err := w.setUp(); err != nil {
		return nil, err
	}
	res.Corpus = fmt.Sprintf("%s targets=%d unique_strands=%d", dep.corpus, dep.targets, dep.strands)
	if name == "ingest_mixed" {
		err = w.ingestMixed()
	} else {
		err = w.search()
	}
	if err != nil {
		return nil, err
	}
	attempted, failed := res.totals()
	res.set("failed_ratio", float64(failed)/float64(max(attempted, 1)), attempted)
	return res, nil
}

// workloadRun carries one run's state through its phases.
type workloadRun struct {
	h       *harness
	in      *inputs
	dep     *deployment
	res     *result
	seconds float64
	trace   bool
	root    int // span id of the workload span
}

// setUp builds the snapshot and starts the serving tier sizes.setupRounds
// times, keeping the last; setup_s is the median round. The traced run
// sets up once: its numbers are per-layer, not end-to-end.
func (w *workloadRun) setUp() error {
	rounds := w.h.sz.setupRounds
	if w.trace {
		rounds = 1
	}
	ph := w.res.phase("setup")
	var took []float64
	for i := 0; i < rounds; i++ {
		w.dep.down()
		ph.Sent++
		sp := w.h.spans.start("setup", "", w.root)
		build, err := w.dep.buildCorpus()
		if err != nil {
			return err
		}
		up, err := w.dep.up()
		sp.end()
		if err != nil {
			return err
		}
		ph.Succeeded++
		took = append(took, (build + up).Seconds())
	}
	w.res.set("setup_s", median(took), len(took))
	bpt, err := w.dep.bytesPerTarget()
	if err != nil {
		return err
	}
	w.res.set("snapshot_bytes_per_target", bpt, 1)
	return nil
}

// restarts SIGKILLs the serving tier and brings it back
// sizes.restartRounds times; restart_s is the median exec -> /readyz
// 200. check runs after every restart.
func (w *workloadRun) restarts(check func() error) error {
	ph := w.res.phase("restart")
	var took []float64
	for i := 0; i < w.h.sz.restartRounds; i++ {
		ph.Sent++
		w.dep.down()
		up, err := w.dep.up()
		if err != nil {
			return err
		}
		if check != nil {
			if err := check(); err != nil {
				ph.Bad++
				w.res.note("after restart %d: %v", i+1, err)
				continue
			}
		}
		ph.Succeeded++
		took = append(took, up.Seconds())
	}
	w.res.set("restart_s", median(took), len(took))
	return nil
}

// sample is one timed request of a closed-loop window.
type sample struct {
	at      time.Duration // completion time since the window opened
	latency time.Duration
	query   int    // index into the query set
	hash    uint64 // of the served results array
	ok      bool
	trace   *telemetry.SpanData // traced runs only: the server's span tree
}

// window is one closed-loop run of a fixed request count.
type window struct {
	samples []sample
	elapsed time.Duration
	// first[q] is the first served results array for query q.
	first [][]byte
}

// queryWindow sends n requests cycling qs from `clients` closed-loop
// clients (each waits for its reply before sending the next), or — with
// n < 0 — keeps cycling until stop is closed. Every reply must be a 200
// with a results array; anything else is a failed sample.
func (w *workloadRun) queryWindow(name string, qs []query, clients, n int, traced bool, stop <-chan struct{}) *window {
	url := w.dep.front + "/v1/query"
	if traced {
		url += "?trace=1"
	}
	win := &window{first: make([][]byte, len(qs))}
	var firstMu sync.Mutex
	var next atomic.Int64
	perClient := make([][]sample, clients)
	parent := w.h.spans.start("window."+name, "", w.root)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				if stop != nil {
					select {
					case <-stop:
						return
					default:
					}
				}
				j := int(next.Add(1)) - 1
				if n >= 0 && j >= n {
					return
				}
				qi := j % len(qs)
				rid := fmt.Sprintf("%s-%s-%d", w.res.Workload, name, j)
				sp := w.h.spans.start("http.query", rid, parent.id())
				r := w.h.do(context.Background(), "POST", url, rid, qs[qi].Body)
				sp.end()
				s := sample{at: time.Since(start), latency: r.latency, query: qi}
				if r.err == nil && r.status == 200 {
					if sv, err := parseServed(r.body); err == nil {
						s.ok = true
						hh := fnv.New64a()
						hh.Write(sv.Results)
						s.hash = hh.Sum64()
						s.trace = sv.Trace
						sp.attach(sv.Trace)
						firstMu.Lock()
						if win.first[qi] == nil {
							win.first[qi] = sv.Results
						}
						firstMu.Unlock()
					}
				}
				perClient[c] = append(perClient[c], s)
			}
		}(c)
	}
	wg.Wait()
	win.elapsed = time.Since(start)
	parent.end()
	for _, ss := range perClient {
		win.samples = append(win.samples, ss...)
	}
	return win
}

// warmUp sends the hot set once, untimed, so the timed window starts on
// a filled VCP cache.
func (w *workloadRun) warmUp(qs []query, clients int) {
	warm := w.queryWindow("warmup", qs, clients, len(qs), false, nil)
	ph := w.res.phase("warmup")
	ph.Sent, ph.Succeeded = len(warm.samples), len(warm.latenciesMS())
	ph.Bad = ph.Sent - ph.Succeeded
}

// latenciesMS returns the successful samples' latencies.
func (win *window) latenciesMS() []float64 {
	out := make([]float64, 0, len(win.samples))
	for _, s := range win.samples {
		if s.ok {
			out = append(out, float64(s.latency.Nanoseconds())/1e6)
		}
	}
	return out
}

// report turns a timed window into qps and latency percentiles. A
// window of at least blocks*100 requests is cut into `blocks`
// consecutive blocks and each metric is the median of the blocks'
// values, so that a burst of interference costs one block, not the run.
// A percentile is reported only when at least ten samples lie beyond it.
func (w *workloadRun) report(win *window, ph *phaseCount) {
	ph.Sent += len(win.samples)
	sort.Slice(win.samples, func(i, j int) bool { return win.samples[i].at < win.samples[j].at })
	var ok []sample
	for _, s := range win.samples {
		if s.ok {
			ok = append(ok, s)
		}
	}
	ph.Succeeded += len(ok)
	ph.Bad += len(win.samples) - len(ok)
	const blocks = 8
	nb := 1
	if len(ok) >= blocks*100 {
		nb = blocks
	}
	var qps, p50, p90, p99 []float64
	opened := time.Duration(0)
	for b := 0; b < nb; b++ {
		blk := ok[b*len(ok)/nb : (b+1)*len(ok)/nb]
		if len(blk) == 0 {
			continue
		}
		closed := blk[len(blk)-1].at
		if b == nb-1 {
			closed = win.elapsed
		}
		lat := make([]float64, len(blk))
		for i, s := range blk {
			lat[i] = float64(s.latency.Nanoseconds()) / 1e6
		}
		qps = append(qps, float64(len(blk))/(closed-opened).Seconds())
		p50 = append(p50, percentile(lat, 0.50))
		p90 = append(p90, percentile(lat, 0.90))
		p99 = append(p99, percentile(lat, 0.99))
		opened = closed
	}
	w.res.set("qps", median(qps), len(ok))
	w.res.set("query_p50_ms", median(p50), len(ok))
	w.res.set("query_p90_ms", median(p90), len(ok))
	if len(ok) < 100 {
		// A short -seconds: still reported, because the driver wants
		// every end-to-end metric, but flagged.
		w.res.note("query_p90_ms has only %d samples; ten beyond it need 100", len(ok))
	}
	if len(ok) >= 1000 {
		w.res.set("query_p99_ms", median(p99), len(ok))
	}
}

// checkStable fails every sample whose served results differ from the
// first reply for the same query: within a window an answer is stable.
func checkStable(win *window, ph *phaseCount) {
	ref := map[int]uint64{}
	for _, s := range win.samples {
		if !s.ok {
			continue
		}
		if h, seen := ref[s.query]; !seen {
			ref[s.query] = s.hash
		} else if h != s.hash {
			ph.Succeeded--
			ph.Bad++
		}
	}
}

// search runs search_cold, search_warm and fleet_warm: they differ in
// deployment, query set, client count and warm-up only.
func (w *workloadRun) search() error {
	qs, clients, n := w.in.Hot, runtime.NumCPU(), 0
	switch w.res.Workload {
	case "search_cold":
		// One client: one cold query already fans out to GOMAXPROCS
		// workers. No warm-up: the cold cache is the point.
		qs, clients, n = w.in.Cold, 1, len(w.in.Cold)
	case "search_warm":
		n = int(math.Round(warmPerSecond * w.seconds))
	case "fleet_warm":
		n = int(math.Round(fleetPerSecond * w.seconds))
	}
	cold := w.res.Workload == "search_cold"
	if !cold {
		w.warmUp(qs, clients)
	}
	var before []engineStats
	if w.trace {
		var err error
		if before, err = w.engineStats(); err != nil {
			return err
		}
	}
	win := w.queryWindow("timed", qs, clients, n, w.trace, nil)
	ph := w.res.phase("timed")
	w.report(win, ph)
	rss, err := w.dep.rssPeakMB()
	if err != nil {
		return err
	}
	w.res.set("rss_peak_mb", rss, len(w.dep.servers))

	// Answer checking. The oracle loads the whole-corpus snapshot — for
	// fleet_warm that is the single-node answer the merged one must
	// equal. The hot set is checked whole; search_cold every
	// oracleEvery-th query in arrival order, which the seed decides.
	orc, err := loadOracle(w.h, w.dep.snapshot())
	if err != nil {
		return err
	}
	checkStable(win, ph)
	oph := w.res.phase("oracle")
	var oracleTraces []*telemetry.SpanData
	var answered []query
	for qi, q := range qs {
		if cold && qi%oracleEvery != 0 || win.first[qi] == nil {
			continue
		}
		oph.Sent++
		sp := w.h.spans.start("oracle.query", q.Name, w.root)
		want, tr, err := orc.answer(q.Proc)
		sp.end()
		if err != nil {
			return err
		}
		sp.attach(tr)
		oracleTraces = append(oracleTraces, tr)
		answered = append(answered, q)
		if sameResults(win.first[qi], want) {
			oph.Succeeded++
		} else {
			oph.Bad++
			w.res.note("%s: served results differ from the in-process oracle", q.Name)
		}
	}
	if w.trace {
		return w.searchLayers(qs, answered, clients, win, before, orc, oracleTraces)
	}
	// A restarted tier must still answer: the smallest query (it is
	// cold again after every restart), checked against what the same
	// tier served before.
	probe := 0
	for qi, q := range qs {
		if win.first[qi] != nil && (win.first[probe] == nil || len(q.Proc.Insts) < len(qs[probe].Proc.Insts)) {
			probe = qi
		}
	}
	return w.restarts(func() error {
		r := w.h.do(context.Background(), "POST", w.dep.front+"/v1/query", "", qs[probe].Body)
		if r.err != nil || r.status != 200 {
			return fmt.Errorf("query after restart: status %d err %v", r.status, r.err)
		}
		sv, err := parseServed(r.body)
		if err != nil {
			return err
		}
		if win.first[probe] != nil && !bytes.Equal(sv.Results, win.first[probe]) {
			return fmt.Errorf("answer changed across a restart")
		}
		return nil
	})
}
