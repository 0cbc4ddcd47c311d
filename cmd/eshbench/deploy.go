package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"
)

// serverSpec is one server process of a deployment: which binary, on
// which port, with which flags. Only paths, -addr, -scale, -synth,
// -save-shards, -wal, -manifest and -shards are ever passed: every
// engine setting is the binaries' default, so the benchmark measures
// what production runs.
type serverSpec struct {
	label, bin string
	port       int
	args       []string
}

// deployment is one workload's serving tier and the snapshot under it.
type deployment struct {
	h       *harness
	dir     string
	corpus  string   // "C1" or "C4"
	scale   []string // eshcorpus corpus flags
	shards  int      // 0 = one eshd on the whole snapshot
	wal     bool
	targets int
	strands int

	// stages are started in order; every server of a stage must be
	// ready before the next stage starts (eshgw verifies its shards at
	// start-up and refuses to run without them).
	stages  [][]serverSpec
	servers []*child
	front   string // base URL queries go to
}

func (d *deployment) snapshot() string { return filepath.Join(d.dir, "corpus.eshidx") }
func (d *deployment) walPath() string  { return filepath.Join(d.dir, "corpus.wal") }
func (d *deployment) manifest() string { return d.snapshot() + ".manifest" }
func (d *deployment) shardFile(i int) string {
	return d.manifest() + "." + strconv.Itoa(i)
}

// servedFiles are the files the serving tier loads: what
// snapshot_bytes_per_target counts.
func (d *deployment) servedFiles() []string {
	if d.shards == 0 {
		return []string{d.snapshot()}
	}
	files := []string{d.manifest()}
	for i := 0; i < d.shards; i++ {
		files = append(files, d.shardFile(i))
	}
	return files
}

func newDeployment(h *harness, workload, dir string) (*deployment, error) {
	d := &deployment{h: h, dir: dir, corpus: "C1", scale: []string{"-scale", "small", "-synth", "0"}}
	switch workload {
	case "fleet_warm":
		d.shards = 2
	case "ingest_mixed":
		d.corpus, d.wal = "C4", true
		d.scale = []string{"-scale", "small", "-synth", strconv.Itoa(c4Synth)}
	}
	// One port per shard (or one for the single eshd), then the gateway's.
	ports := make([]int, d.shards+1)
	for i := range ports {
		p, err := h.freePort()
		if err != nil {
			return nil, err
		}
		ports[i] = p
	}
	if d.shards == 0 {
		args := []string{"-index", d.snapshot()}
		if d.wal {
			args = append(args, "-wal", d.walPath())
		}
		d.stages = [][]serverSpec{{{label: "eshd", bin: "eshd", port: ports[0], args: args}}}
		d.front = baseURL(ports[0])
		return d, nil
	}
	var shardStage []serverSpec
	var urls []string
	for i := 0; i < d.shards; i++ {
		shardStage = append(shardStage, serverSpec{label: "shard" + strconv.Itoa(i), bin: "eshd", port: ports[i], args: []string{"-index", d.shardFile(i)}})
		urls = append(urls, baseURL(ports[i]))
	}
	gw := serverSpec{label: "eshgw", bin: "eshgw", port: ports[d.shards], args: []string{"-manifest", d.manifest(), "-shards", strings.Join(urls, ";")}}
	d.stages = [][]serverSpec{shardStage, {gw}}
	d.front = baseURL(gw.port)
	return d, nil
}

func baseURL(port int) string { return "http://127.0.0.1:" + strconv.Itoa(port) }

// buildCorpus runs eshcorpus -save (and -save-shards): the snapshot
// build half of setup_s.
func (d *deployment) buildCorpus() (time.Duration, error) {
	// A daemon restarted on an old WAL would replay it into the fresh
	// snapshot; every set-up round starts clean.
	for _, stale := range append(d.servedFiles(), d.snapshot(), d.walPath()) {
		if err := os.Remove(stale); err != nil && !os.IsNotExist(err) {
			return 0, err
		}
	}
	args := append([]string{"-save", d.snapshot()}, d.scale...)
	if d.shards > 0 {
		args = append(args, "-save-shards", strconv.Itoa(d.shards))
	}
	start := time.Now()
	out, err := d.h.runTool("eshcorpus", args...)
	took := time.Since(start)
	if err != nil {
		return 0, err
	}
	if _, err := fmt.Sscanf(string(out), "indexed %d procedures (%d unique strands)", &d.targets, &d.strands); err != nil {
		return 0, fmt.Errorf("eshcorpus output not understood: %q", out)
	}
	return took, nil
}

// up starts every server from its persisted state and waits until the
// front is ready: the daemon-start half of setup_s, and all of
// restart_s.
func (d *deployment) up() (time.Duration, error) {
	start := time.Now()
	for _, stage := range d.stages {
		var started []*child
		for _, spec := range stage {
			c, err := d.h.start(spec.label, spec.bin, spec.port, spec.args...)
			if err != nil {
				return 0, err
			}
			started = append(started, c)
			d.servers = append(d.servers, c)
		}
		for _, c := range started {
			if err := d.h.waitReady(c); err != nil {
				return 0, err
			}
		}
	}
	return time.Since(start), nil
}

// down SIGKILLs every server and reaps it. Nothing is drained: a
// restart after down is a crash recovery.
func (d *deployment) down() {
	for _, c := range d.servers {
		c.kill()
	}
	d.servers = nil
}

// rssPeakMB sums the servers' peak resident sets.
func (d *deployment) rssPeakMB() (float64, error) {
	total := 0
	for _, c := range d.servers {
		kb, err := c.vmHWMkB()
		if err != nil {
			return 0, err
		}
		total += kb
	}
	return float64(total) / 1024, nil
}

func (d *deployment) bytesPerTarget() (float64, error) {
	var total int64
	for _, f := range d.servedFiles() {
		st, err := os.Stat(f)
		if err != nil {
			return 0, err
		}
		total += st.Size()
	}
	return float64(total) / float64(d.targets), nil
}
