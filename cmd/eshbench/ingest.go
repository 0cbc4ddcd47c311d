package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/url"
	"os"
	"sort"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/server"
)

// ack is one acknowledged step of the write script.
type ack struct {
	op      writeOp
	at      time.Duration // completion, since the window opened
	latency time.Duration
}

// writeWindow replays the write script from one closed-loop client and
// returns the acknowledgements. A step that is not acknowledged the way
// it should be (200, the right added name, exactly one removed) counts
// as failed in ph.
func (w *workloadRun) writeWindow(ph *phaseCount, start time.Time) []ack {
	parent := w.h.spans.start("window.writes", "", w.root)
	defer parent.end()
	var acks []ack
	for i, op := range w.in.Writes {
		rid := fmt.Sprintf("ingest_mixed-write-%d", i)
		sp := w.h.spans.start("http."+op.Kind, rid, parent.id())
		var r reply
		switch op.Kind {
		case "add":
			r = w.h.do(context.Background(), "POST", w.dep.front+"/v1/targets", rid, op.Body)
		case "delete":
			r = w.h.do(context.Background(), "DELETE", w.dep.front+"/v1/targets/"+url.PathEscape(op.Name), rid, nil)
		case "compact":
			r = w.h.do(context.Background(), "POST", w.dep.front+"/v1/compact", rid, nil)
		}
		sp.end()
		ph.Sent++
		ok := r.err == nil && r.status == 200
		if ok && op.Kind != "compact" {
			var wr server.WriteResponse
			ok = json.Unmarshal(r.body, &wr) == nil &&
				(op.Kind == "add" && len(wr.Added) == 1 && wr.Added[0] == op.Name ||
					op.Kind == "delete" && wr.Removed == 1)
		}
		if !ok {
			ph.Bad++
			w.res.note("write step %d (%s %s): status %d err %v", i, op.Kind, op.Name, r.status, r.err)
			continue
		}
		ph.Succeeded++
		acks = append(acks, ack{op: op, at: time.Since(start), latency: r.latency})
	}
	return acks
}

// liveAdds is the acknowledged adds that no acknowledged delete
// removed, in acknowledgement order.
func liveAdds(acks []ack) []writeOp {
	deleted := map[string]bool{}
	for _, a := range acks {
		if a.op.Kind == "delete" {
			deleted[a.op.Name] = true
		}
	}
	var out []writeOp
	for _, a := range acks {
		if a.op.Kind == "add" && !deleted[a.op.Name] {
			out = append(out, a.op)
		}
	}
	return out
}

// servedTargets is GET /v1/targets as a sorted name list.
func (w *workloadRun) servedTargets() ([]string, error) {
	r := w.h.do(context.Background(), "GET", w.dep.front+"/v1/targets", "", nil)
	if r.err != nil || r.status != 200 {
		return nil, fmt.Errorf("GET /v1/targets: status %d err %v", r.status, r.err)
	}
	var body struct {
		Targets []server.TargetInfo `json:"targets"`
	}
	if err := json.Unmarshal(r.body, &body); err != nil {
		return nil, err
	}
	names := make([]string, len(body.Targets))
	for i, t := range body.Targets {
		names[i] = t.Name
	}
	sort.Strings(names)
	return names, nil
}

// ingestMixed is the write-path workload: client 1 replays the write
// script, client 2 cycles the hot set for as long as the script runs
// (so the reader's request count is the one count here that is a
// result, not an input), then the daemon is SIGKILLed and restarted on
// the same -index/-wal.
func (w *workloadRun) ingestMixed() error {
	qs := w.in.IngestHot
	w.warmUp(qs, 1)

	var before []engineStats
	if w.trace {
		var err error
		if before, err = w.engineStats(); err != nil {
			return err
		}
	}
	stop := make(chan struct{})
	readerDone := make(chan *window, 1)
	start := time.Now()
	go func() { readerDone <- w.queryWindow("reader", qs, 1, -1, w.trace, stop) }()
	writes := w.res.phase("writes")
	acks := w.writeWindow(writes, start)
	elapsed := time.Since(start)
	close(stop)
	reads := <-readerDone
	w.report(reads, w.res.phase("reader"))

	var ackMS, compactS []float64
	type interval struct{ from, to time.Duration }
	var compactions []interval
	liveAtCompact := 0
	live := w.dep.targets
	for _, a := range acks {
		switch a.op.Kind {
		case "add":
			live++
		case "delete":
			live--
		case "compact":
			compactS = append(compactS, a.latency.Seconds())
			compactions = append(compactions, interval{a.at - a.latency, a.at})
			liveAtCompact = live
			continue
		}
		ackMS = append(ackMS, float64(a.latency.Nanoseconds())/1e6)
	}
	w.res.set("writes_per_s", float64(len(ackMS))/elapsed.Seconds(), len(ackMS))
	w.res.set("write_ack_p50_ms", percentile(ackMS, 0.50), len(ackMS))
	if len(ackMS) >= 1000 {
		w.res.set("write_ack_p99_ms", percentile(ackMS, 0.99), len(ackMS))
	} else {
		w.res.note("write_ack_p99_ms needs 1000 write acks, the script has %d", len(ackMS))
	}
	w.res.set("compact_s", median(compactS), len(compactS))
	rss, err := w.dep.rssPeakMB()
	if err != nil {
		return err
	}
	w.res.set("rss_peak_mb", rss, len(w.dep.servers))

	if w.trace {
		// The reader's worst request inside a compaction, over its median.
		worst := 0.0
		for _, s := range reads.samples {
			for _, c := range compactions {
				if s.ok && s.at >= c.from && s.at-s.latency <= c.to {
					worst = max(worst, float64(s.latency.Nanoseconds())/1e6)
				}
			}
		}
		w.res.set("core.compact_read_stall_ms", max(worst-percentile(reads.latenciesMS(), 0.5), 0), len(compactions))
		if st, err := os.Stat(w.dep.snapshot()); err == nil && liveAtCompact > 0 {
			w.res.set("index.bytes_per_target", float64(st.Size())/float64(liveAtCompact), 1)
		}
		if err := w.ingestLayers(qs, reads, before, ackMS); err != nil {
			return err
		}
	}

	// Durability: after every SIGKILL -> restart, the served target list
	// must be the snapshot's targets plus every acknowledged, undeleted
	// add. The tail of the script after the last compaction lives in the
	// WAL alone, so a lost acknowledged write shows here.
	survivors := liveAdds(acks)
	want := make([]string, 0, len(w.in.Base)+len(survivors))
	for _, p := range w.in.Base {
		want = append(want, p.Name)
	}
	for _, op := range survivors {
		want = append(want, op.Name)
	}
	sort.Strings(want)
	checkTargets := func() error {
		got, err := w.servedTargets()
		if err != nil {
			return err
		}
		if len(got) != len(want) {
			return fmt.Errorf("served %d targets, acknowledged live set has %d", len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				return fmt.Errorf("served target %q, acknowledged live set has %q", got[i], want[i])
			}
		}
		return nil
	}
	if w.trace {
		// The traced run checks durability once instead of timing
		// several recoveries.
		ph := w.res.phase("restart")
		ph.Sent++
		w.dep.down()
		if _, err := w.dep.up(); err != nil {
			return err
		}
		if err := checkTargets(); err != nil {
			ph.Bad++
			w.res.note("after restart: %v", err)
		} else {
			ph.Succeeded++
		}
	} else if err := w.restarts(checkTargets); err != nil {
		return err
	}

	// The final hot-set answers must equal a from-scratch rebuild of the
	// acknowledged live set: the corpus's procedures, then the surviving
	// adds as the server parsed them, indexed into an empty DB.
	sp := w.h.spans.start("oracle.rebuild", "", w.root)
	rebuilt := core.NewDB(core.Options{Prefilter: core.PrefilterLSH})
	for _, p := range w.in.Base {
		if err := rebuilt.AddTarget(p); err != nil {
			return err
		}
	}
	for _, op := range survivors {
		p, err := asm.ParseProc(op.Asm)
		if err != nil {
			return err
		}
		if err := rebuilt.AddTarget(p); err != nil {
			return err
		}
	}
	sp.end()
	final := w.queryWindow("final", qs, 1, len(qs), false, nil)
	oph := w.res.phase("oracle")
	for qi, q := range qs {
		oph.Sent++
		rep, err := rebuilt.Query(q.Proc)
		if err != nil {
			return err
		}
		wantJSON, err := resultsJSON(rep)
		if err != nil {
			return err
		}
		if final.first[qi] != nil && sameResults(final.first[qi], wantJSON) {
			oph.Succeeded++
		} else {
			oph.Bad++
			w.res.note("%s: served results differ from a from-scratch rebuild of the live set", q.Name)
		}
	}
	return nil
}
