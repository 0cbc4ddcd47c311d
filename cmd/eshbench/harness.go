package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// stamp identifies the environment a number was measured in. Numbers
// from runs whose stamps differ are never merged.
type stamp struct {
	Commit, GoVersion, CPU string
	NProc, GOMAXPROCS      int
	// Fsync is the WAL policy eshd runs under: the benchmark passes no
	// -fsync flag, so it is eshd's default.
	Fsync string
}

func (s stamp) String() string {
	return fmt.Sprintf("commit=%s go=%s cpu=%q nproc=%d gomaxprocs=%d fsync=%s",
		s.Commit, s.GoVersion, s.CPU, s.NProc, s.GOMAXPROCS, s.Fsync)
}

func (s stamp) print(w io.Writer) { fmt.Fprintf(w, "eshbench stamp %s\n", s) }

func readStamp(root string) stamp {
	s := stamp{
		Commit:     "unknown",
		GoVersion:  runtime.Version(),
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Fsync:      "always",
	}
	// The driver's checkout is not a git repository; "unknown" is the
	// honest stamp there, so git must not climb into a repository above.
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = root
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(root))
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	if commit, err := git("rev-parse", "--short=12", "HEAD"); err == nil {
		s.Commit = commit
		if dirty, err := git("status", "--porcelain", "--untracked-files=no"); err == nil && dirty != "" {
			s.Commit += "+dirty"
		}
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return s
}

// harness owns everything a run leaves behind: the temp dir, the child
// processes, and the loopback ports handed to them.
type harness struct {
	stamp   stamp
	sz      sizes
	root    string // the repo root: where go build runs
	workdir string // persistent: built binaries live in workdir/bin
	tmp     string // per-run, removed by cleanup
	client  *http.Client
	spans   *spanLog

	mu       sync.Mutex
	children []*child
	ports    []int
	cleaned  bool
}

func newHarness(workdir string) (*harness, error) {
	abs, err := filepath.Abs(workdir)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(abs, "bin"), 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(abs, "run-")
	if err != nil {
		return nil, err
	}
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	return &harness{
		stamp:   readStamp(root),
		sz:      fullSizes,
		root:    root,
		workdir: abs,
		tmp:     tmp,
		spans:   &spanLog{},
		// One connection per closed-loop client, never more than nproc.
		client: &http.Client{
			Timeout: 120 * time.Second,
			Transport: &http.Transport{
				MaxIdleConnsPerHost: runtime.NumCPU(),
				MaxConnsPerHost:     runtime.NumCPU(),
				DisableCompression:  true,
			},
		},
	}, nil
}

// build compiles the repo's real binaries. go build is incremental, so
// after the first run this costs a stat pass; it is never part of
// setup_s.
func (h *harness) build() error {
	cmd := exec.Command("go", "build", "-o", filepath.Join(h.workdir, "bin")+string(os.PathSeparator),
		"./cmd/eshcorpus", "./cmd/eshd", "./cmd/eshgw")
	cmd.Dir = h.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build in %s: %v\n%s", h.root, err, out)
	}
	return nil
}

// repoRoot is the nearest directory at or above the working directory
// that holds go.mod (go test runs in the package directory).
func repoRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("no go.mod at or above the working directory: run eshbench inside the repo")
		}
		dir = parent
	}
}

func (h *harness) bin(name string) string { return filepath.Join(h.workdir, "bin", name) }

// freePort asks the kernel for an unused loopback port. The listener is
// closed before the child binds it; the harness remembers the port so
// cleanup can prove it was released.
func (h *harness) freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	if err := l.Close(); err != nil {
		return 0, err
	}
	h.mu.Lock()
	h.ports = append(h.ports, port)
	h.mu.Unlock()
	return port, nil
}

// child is one server process.
type child struct {
	name string // label in logs and errors
	bin  string // which binary it runs
	cmd  *exec.Cmd
	url  string
	log  string
	done chan struct{} // closed once Wait returned
}

// runTool runs a short-lived binary (eshcorpus) to completion.
func (h *harness) runTool(name string, args ...string) ([]byte, error) {
	out, err := exec.Command(h.bin(name), args...).CombinedOutput()
	if err != nil {
		return out, fmt.Errorf("%s %s: %v\n%s", name, strings.Join(args, " "), err, out)
	}
	return out, nil
}

// start launches a server binary listening on port. Its stderr (one
// slog line per request) goes to a file in the temp dir.
func (h *harness) start(label, name string, port int, args ...string) (*child, error) {
	logPath := filepath.Join(h.tmp, fmt.Sprintf("%s-%d.log", label, time.Now().UnixNano()))
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args = append(args, "-addr", "127.0.0.1:"+strconv.Itoa(port))
	cmd := exec.Command(h.bin(name), args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	c := &child{name: label, bin: name, cmd: cmd, url: baseURL(port), log: logPath, done: make(chan struct{})}
	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		logf.Close()
		return nil, errors.New("harness already cleaned up")
	}
	err = cmd.Start()
	if err == nil {
		h.children = append(h.children, c)
	}
	h.mu.Unlock()
	logf.Close() // the child holds its own descriptor
	if err != nil {
		return nil, fmt.Errorf("start %s: %w", label, err)
	}
	go func() {
		_ = cmd.Wait() // a killed child reports an error by design
		close(c.done)
	}()
	return c, nil
}

// waitReady polls /readyz until it answers 200. It watches the child,
// not a sleep: a child that exits is reported with the tail of its log.
func (h *harness) waitReady(c *child) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-c.done:
			return fmt.Errorf("%s exited before it was ready:\n%s", c.name, tail(c.log, 20))
		default:
		}
		resp, err := h.client.Get(c.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("%s not ready after 60s:\n%s", c.name, tail(c.log, 20))
}

// kill SIGKILLs the child and reaps it.
func (c *child) kill() {
	if c == nil {
		return
	}
	select {
	case <-c.done:
		return
	default:
	}
	_ = c.cmd.Process.Signal(syscall.SIGKILL) // already gone is fine
	<-c.done
}

// vmHWMkB is the child's peak resident set, from /proc/<pid>/status.
func (c *child) vmHWMkB() (int, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			return strconv.Atoi(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")))
		}
	}
	return 0, fmt.Errorf("no VmHWM for %s", c.name)
}

// cleanup kills and reaps every child, proves every port was released,
// and removes the temp dir. It is safe to call twice (the signal
// handler and the normal exit path can race).
func (h *harness) cleanup() error {
	h.mu.Lock()
	if h.cleaned {
		h.mu.Unlock()
		return nil
	}
	h.cleaned = true
	children, ports := h.children, h.ports
	h.mu.Unlock()

	var problems []string
	for _, c := range children {
		c.kill()
		if err := c.cmd.Process.Signal(syscall.Signal(0)); err == nil {
			problems = append(problems, fmt.Sprintf("child %s (pid %d) is still alive", c.name, c.cmd.Process.Pid))
		}
	}
	h.client.CloseIdleConnections()
	for _, p := range ports {
		l, err := net.Listen("tcp", "127.0.0.1:"+strconv.Itoa(p))
		if err != nil {
			problems = append(problems, fmt.Sprintf("port %d is still held: %v", p, err))
			continue
		}
		l.Close()
	}
	if err := os.RemoveAll(h.tmp); err != nil {
		problems = append(problems, err.Error())
	}
	if len(problems) > 0 {
		return errors.New("left over after cleanup: " + strings.Join(problems, "; "))
	}
	return nil
}

func tail(path string, lines int) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return err.Error()
	}
	all := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(all) > lines {
		all = all[len(all)-lines:]
	}
	return strings.Join(all, "\n")
}

// reply is one HTTP exchange as the closed-loop client saw it.
type reply struct {
	status  int
	body    []byte
	latency time.Duration
	err     error
}

// do sends one request and reads the whole reply. Latency runs from
// just before the request is written to the last body byte.
func (h *harness) do(ctx context.Context, method, url, rid string, body []byte) reply {
	start := time.Now()
	req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
	if err != nil {
		return reply{err: err}
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if rid != "" {
		req.Header.Set("X-Request-ID", rid)
	}
	resp, err := h.client.Do(req)
	if err != nil {
		return reply{err: err, latency: time.Since(start)}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	return reply{status: resp.StatusCode, body: data, latency: time.Since(start), err: err}
}
