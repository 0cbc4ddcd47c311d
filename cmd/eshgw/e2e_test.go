package main_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"repro/internal/compile"
	"repro/internal/corpus"
)

// TestClusterE2E is the process-level cluster smoke test: eshcorpus
// shards a small compiled corpus two ways, two real eshd processes
// serve the shards, an eshgw process coordinates them, and the
// gateway's ranked rows — names and raw scores, compared on the JSON
// bytes — must be identical to a single eshd serving the union
// snapshot. Then one shard is killed and the gateway must keep
// answering 200 with the partial flag and the dead shard listed.
//
// The fleet is the default one: every flag unset, as BENCHMARK.json's
// fleet_warm runs it.
func TestClusterE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("builds binaries, indexes a corpus, and runs a process-level cluster")
	}
	dir := t.TempDir()
	bins := map[string]string{}
	for _, name := range []string{"eshcorpus", "eshd", "eshgw"} {
		bin := filepath.Join(dir, name)
		out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/"+name).CombinedOutput()
		if err != nil {
			t.Fatalf("go build %s: %v\n%s", name, err, out)
		}
		bins[name] = bin
	}

	snap := filepath.Join(dir, "corpus.eshidx")
	if out, err := exec.Command(bins["eshcorpus"], "-save", snap, "-save-shards", "2",
		"-scale", "small", "-synth", "0").CombinedOutput(); err != nil {
		t.Fatalf("eshcorpus -save -save-shards: %v\n%s", err, out)
	}
	manifest := snap + ".manifest"
	for _, p := range []string{manifest, manifest + ".0", manifest + ".1"} {
		if _, err := os.Stat(p); err != nil {
			t.Fatalf("missing cluster artifact: %v", err)
		}
	}

	ports := freePorts(t, 4)
	singleAddr := fmt.Sprintf("127.0.0.1:%d", ports[0])
	shardAddr := []string{
		fmt.Sprintf("127.0.0.1:%d", ports[1]),
		fmt.Sprintf("127.0.0.1:%d", ports[2]),
	}
	gwAddr := fmt.Sprintf("127.0.0.1:%d", ports[3])

	start := func(name string, args ...string) *exec.Cmd {
		t.Helper()
		cmd := exec.Command(bins[name], args...)
		cmd.Stderr = io.Discard
		if err := cmd.Start(); err != nil {
			t.Fatalf("start %s: %v", name, err)
		}
		t.Cleanup(func() {
			if cmd.Process != nil {
				cmd.Process.Kill()
				cmd.Wait()
			}
		})
		return cmd
	}
	start("eshd", "-index", snap, "-addr", singleAddr)
	shardProcs := []*exec.Cmd{
		start("eshd", "-index", manifest+".0", "-addr", shardAddr[0]),
		start("eshd", "-index", manifest+".1", "-addr", shardAddr[1]),
	}
	for _, addr := range append([]string{singleAddr}, shardAddr...) {
		waitReady(t, "http://"+addr+"/readyz", 30*time.Second)
	}

	start("eshgw", "-manifest", manifest,
		"-shards", "http://"+shardAddr[0]+";http://"+shardAddr[1],
		"-addr", gwAddr, "-retries", "1", "-retry-backoff", "50ms")
	waitReady(t, "http://"+gwAddr+"/readyz", 30*time.Second)

	qtc, ok := compile.ByName("clang-3.5")
	if !ok {
		t.Fatal("query toolchain missing")
	}
	q, err := corpus.CompileVuln(corpus.Vulns()[0], qtc, false)
	if err != nil {
		t.Fatal(err)
	}
	reqBody, _ := json.Marshal(map[string]any{"asm": q.String(), "top": 50})

	post := func(addr string) (int, map[string]json.RawMessage) {
		t.Helper()
		resp, err := http.Post("http://"+addr+"/v1/query", "application/json", bytes.NewReader(reqBody))
		if err != nil {
			t.Fatalf("query %s: %v", addr, err)
		}
		defer resp.Body.Close()
		var fields map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&fields); err != nil {
			t.Fatalf("decode from %s: %v", addr, err)
		}
		return resp.StatusCode, fields
	}

	// Differential: the gateway's rows must be byte-identical JSON to
	// the single node's — same ranking, same raw scores to the last
	// digit (Go encodes float64 shortest-exact, so byte equality is bit
	// equality).
	codeSingle, single := post(singleAddr)
	codeGW, gw := post(gwAddr)
	if codeSingle != http.StatusOK || codeGW != http.StatusOK {
		t.Fatalf("query status: single=%d gateway=%d", codeSingle, codeGW)
	}
	if string(single["results"]) != string(gw["results"]) {
		t.Fatalf("gateway results diverge from single node:\n--- single ---\n%s\n--- gateway ---\n%s",
			single["results"], gw["results"])
	}
	if _, ok := gw["partial"]; ok {
		t.Fatalf("complete fleet flagged partial: %s", gw["partial"])
	}
	// The wire form is the compact encoding, and asking again — every
	// eshd now holds the text's plan — gives the same bytes.
	var compact bytes.Buffer
	if err := json.Compact(&compact, single["results"]); err != nil || compact.String() != string(single["results"]) {
		t.Fatalf("results are not compact JSON (%v):\n%s", err, single["results"])
	}
	for _, addr := range []string{singleAddr, gwAddr} {
		if _, again := post(addr); string(again["results"]) != string(single["results"]) {
			t.Fatalf("%s: the repeated query's results differ:\n%s", addr, again["results"])
		}
	}

	// Kill shard 1: the gateway must degrade, not fail.
	shardProcs[1].Process.Signal(syscall.SIGKILL)
	shardProcs[1].Wait()
	deadline := time.Now().Add(30 * time.Second)
	for {
		code, fields := post(gwAddr)
		if code != http.StatusOK {
			t.Fatalf("shard-down query = %d, want 200", code)
		}
		var partial bool
		var missing []int
		json.Unmarshal(fields["partial"], &partial)
		json.Unmarshal(fields["missing_shards"], &missing)
		if partial {
			if len(missing) != 1 || missing[0] != 1 {
				t.Fatalf("missing_shards = %v, want [1]", missing)
			}
			if string(fields["results"]) == string(single["results"]) {
				t.Fatal("degraded response still lists the dead shard's targets")
			}
			break
		}
		// The kill can race an in-flight connection's keep-alive; retry
		// until the gateway observes the death.
		if time.Now().After(deadline) {
			t.Fatal("gateway never flagged the dead shard")
		}
		time.Sleep(200 * time.Millisecond)
	}
}

func freePorts(t *testing.T, n int) []int {
	t.Helper()
	ports := make([]int, n)
	for i := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ports[i] = l.Addr().(*net.TCPAddr).Port
		defer l.Close()
	}
	return ports
}

func waitReady(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		resp, err := http.Get(url)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return
			}
		}
		time.Sleep(100 * time.Millisecond)
	}
	t.Fatalf("%s never became ready", url)
}
