package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/internal/asm"
	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/lift"
	"repro/internal/server"
	"repro/internal/strand"
	"repro/internal/vcp"
)

// Sizes. Every workload runs a fixed operation count: a per-second
// constant times -seconds. The constants were chosen on the 2-core
// reference box so that one full untraced set of four workloads, with
// set-up, warm-up, oracle checks and restarts, stays inside the
// driver's time cap (see README.md, "Sizes").
const (
	defaultSeconds = 10

	// search_cold sends the whole held-out population once -seconds
	// reaches coldFullSeconds (a stratified share of it below that).
	// The population is ~110 procedures — what query_p90_ms needs to
	// have ten samples beyond it — and costs ~30 s of wall time on the
	// reference box: the one window that runs longer than -seconds.
	coldFullSeconds = 10
	// Every oracleEvery-th search_cold query is re-answered in process.
	oracleEvery = 8

	warmPerSecond   = 400 // search_warm timed requests per nominal second
	fleetPerSecond  = 100 // fleet_warm timed requests per nominal second
	writesPerSecond = 100 // ingest_mixed scripted write ops per nominal second
	compactions     = 4   // POST /v1/compact calls spread over the write script
	c4Synth         = 100 // eshcorpus -synth for C4
)

// sizes are the dimensions that do not scale with -seconds. The
// benchmark always runs fullSizes; the package test runs a miniature.
type sizes struct {
	hotSet        int // hot-set procedures of search_warm and fleet_warm
	ingestHotSet  int // of ingest_mixed's reader, on the 4x corpus
	setupRounds   int // full set-ups per run; setup_s is their median
	restartRounds int // SIGKILL -> restart cycles per run; restart_s is their median
}

var fullSizes = sizes{hotSet: 16, ingestHotSet: 4, setupRounds: 3, restartRounds: 7}

// smallToolchains are what eshcorpus -scale small compiles the corpus
// with; heldOutToolchains are the other four — the paper's
// cross-compiler search compiles the query with a toolchain the corpus
// has never seen.
var (
	smallToolchains   = []string{"gcc-4.9", "clang-3.5", "icc-15.0.1"}
	heldOutToolchains = []string{"gcc-4.6", "gcc-4.8", "clang-3.4", "icc-14.0.4"}
)

func toolchains(names []string) ([]compile.Toolchain, error) {
	var out []compile.Toolchain
	for _, n := range names {
		tc, ok := compile.ByName(n)
		if !ok {
			return nil, fmt.Errorf("unknown toolchain %q", n)
		}
		out = append(out, tc)
	}
	return out, nil
}

// query is one procedure as the benchmark sends it.
type query struct {
	Name string
	Proc *asm.Proc
	Body []byte // the POST /v1/query JSON body
}

func newQuery(p *asm.Proc) (query, error) {
	body, err := json.Marshal(server.QueryRequest{Asm: p.String()})
	return query{Name: p.Name, Proc: p, Body: body}, err
}

// source is one held-out source procedure with its compiled variants,
// one per held-out toolchain.
type source struct {
	variants []*asm.Proc
	// query is the variant the benchmark sends: source i goes out in
	// variant i mod 4, so all four held-out toolchains are represented
	// and the choice does not depend on the seed.
	query *asm.Proc
	// strands and vars size the query the way the engine sees it: the
	// strands that survive the minimum-size filter, and their variables.
	// Cold cost, warm cost and partial-JSON size all scale with them;
	// instruction count does not predict them.
	strands, vars int
}

// heldOut compiles the corpus's source packages with the four held-out
// toolchains and groups the result by source procedure: the unpatched
// sources only, since the paper's query is the vulnerable procedure.
// Sources whose body is byte-identical to an earlier source's
// (memcpy8/memset8 are linked into every package) are dropped: they
// would be VCP-cache hits from their second appearance and turn a cold
// workload bimodal.
func heldOut() ([]*source, error) {
	tcs, err := toolchains(heldOutToolchains)
	if err != nil {
		return nil, err
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs})
	if err != nil {
		return nil, err
	}
	bodyOf := func(p *asm.Proc) string {
		s := p.String()
		return s[strings.IndexByte(s, '\n'):]
	}
	seen := map[string]bool{}
	byKey := map[string]*source{}
	var out []*source
	for _, p := range procs {
		key := p.Source.Package + ":" + p.Source.SourceSym
		s := byKey[key]
		if s == nil {
			if b := bodyOf(p); seen[b] {
				continue
			} else {
				seen[b] = true
			}
			s = &source{}
			byKey[key] = s
			out = append(out, s)
		}
		s.variants = append(s.variants, p)
	}
	minVars := vcp.Default().MinVars
	for i, s := range out {
		s.query = s.variants[i%len(s.variants)]
		g, err := cfg.Build(s.query)
		if err != nil {
			return nil, err
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			return nil, err
		}
		for _, st := range strand.FromProc(lp) {
			if st.NumVars() >= minVars {
				s.strands++
				s.vars += st.NumVars()
			}
		}
	}
	// By size, smallest first: the order the strata are cut from.
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].strands != out[j].strands {
			return out[i].strands < out[j].strands
		}
		return out[i].vars < out[j].vars
	})
	return out, nil
}

// writeOp is one step of ingest_mixed's write script.
type writeOp struct {
	Kind string // "add", "delete" or "compact"
	Name string // target name (add, delete)
	Body []byte // POST /v1/targets JSON body (add)
	Asm  string // the added procedure's text (add)
}

// inputs is everything the seed decides. The servers only ever see
// these: no server flag depends on the seed.
type inputs struct {
	// Cold is search_cold's query sequence: the population is fixed
	// (every held-out source, so work counts and percentiles describe
	// a population, not a sample of one), the seed fixes arrival order
	// and with it which queries the oracle re-answers.
	Cold []query
	// Hot is the hot set: the sources sorted by size and cut into
	// sizes.hotSet strata, the middle source of each, cycled in seeded
	// order.
	Hot []query
	// IngestHot is the reader's smaller hot set on the 4x corpus.
	IngestHot []query
	// Writes is the add/delete/compact script.
	Writes []writeOp
	// Base is C4's procedures in eshcorpus's order: what a from-scratch
	// rebuild of the live set starts from.
	Base []*asm.Proc
}

// generate builds one workload's inputs for one seed.
func generate(seed int64, seconds float64, workload string, sz sizes) (*inputs, error) {
	srcs, err := heldOut()
	if err != nil {
		return nil, err
	}
	in := &inputs{}
	switch workload {
	case "search_cold":
		in.Cold, err = coldQueries(rand.New(rand.NewSource(seed)), srcs, seconds)
	case "search_warm", "fleet_warm":
		in.Hot, err = hotSet(rand.New(rand.NewSource(seed)), srcs, sz.hotSet)
	case "ingest_mixed":
		if in.IngestHot, err = hotSet(rand.New(rand.NewSource(seed)), srcs, sz.ingestHotSet); err != nil {
			return nil, err
		}
		in.Writes, in.Base, err = writeScript(rand.New(rand.NewSource(seed+1)), int(math.Round(writesPerSecond*seconds)))
	default:
		err = fmt.Errorf("unknown workload %q", workload)
	}
	if err != nil {
		return nil, err
	}
	return in, nil
}

func coldQueries(rng *rand.Rand, srcs []*source, seconds float64) ([]query, error) {
	n := len(srcs)
	if seconds < coldFullSeconds {
		n = max(1, int(math.Round(float64(n)*seconds/coldFullSeconds)))
	}
	// A shorter run keeps every k-th source by size, so the share has
	// the population's size profile.
	out := make([]query, n)
	for i := range out {
		q, err := newQuery(srcs[i*len(srcs)/n].query)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// hotSet cuts the sources (sorted by size) into n strata and takes the
// middle source of each; the seed only fixes the order they cycle in.
// A seeded draw from each stratum was tried and dropped: a warm query's
// cost follows the size of its cache rows, the few largest procedures
// carry a quarter of a cycle's time, and which of them was drawn moved
// search_warm's qps by up to 25% from seed to seed.
func hotSet(rng *rand.Rand, srcs []*source, n int) ([]query, error) {
	if n > len(srcs) {
		return nil, fmt.Errorf("hot set of %d from %d sources", n, len(srcs))
	}
	out := make([]query, n)
	for i := range out {
		q, err := newQuery(srcs[(2*i+1)*len(srcs)/(2*n)].query)
		if err != nil {
			return nil, err
		}
		out[i] = q
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out, nil
}

// writeScript builds an n-op script: three adds then one delete of a
// random earlier, still-live add, with compactions spread so that the
// last one leaves a tail of acknowledged writes in the WAL alone —
// the records a SIGKILL must not lose. Added procedures come from
// GeneratedVariants beyond the c4Synth packages already in the
// snapshot, compiled with the corpus's own toolchains.
func writeScript(rng *rand.Rand, n int) ([]writeOp, []*asm.Proc, error) {
	tcs, err := toolchains(smallToolchains)
	if err != nil {
		return nil, nil, err
	}
	adds := n - n/4
	// Each generated package compiles to four procedures per toolchain.
	extra := (adds + 4*len(tcs) - 1) / (4 * len(tcs))
	all, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: true, SynthVariants: c4Synth + extra})
	if err != nil {
		return nil, nil, err
	}
	// corpus.Build appends the generated packages in index order, so
	// the C4 corpus is the prefix before the first extra package.
	firstNew := corpus.GeneratedVariants(c4Synth + 1)[c4Synth].Name
	nBase := len(all)
	for i, p := range all {
		if p.Source.Package == firstNew {
			nBase = i
			break
		}
	}
	if nBase+adds > len(all) {
		return nil, nil, fmt.Errorf("write script needs %d new procedures, corpus build has %d", adds, len(all)-nBase)
	}
	pool := append([]*asm.Proc(nil), all[nBase:]...)
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })

	compactAt := map[int]bool{}
	for c := 1; c <= compactions; c++ {
		// At 20%, 45%, 70% and 95% of the script.
		compactAt[n*(25*c-5)/100] = true
	}
	var ops []writeOp
	var live []string
	next := 0
	for i := 0; i < n; i++ {
		if i%4 == 3 && len(live) > 0 {
			k := rng.Intn(len(live))
			ops = append(ops, writeOp{Kind: "delete", Name: live[k]})
			live = append(live[:k], live[k+1:]...)
		} else {
			p := pool[next]
			next++
			text := p.String()
			body, err := json.Marshal(server.WriteRequest{Asm: text})
			if err != nil {
				return nil, nil, err
			}
			ops = append(ops, writeOp{Kind: "add", Name: p.Name, Body: body, Asm: text})
			live = append(live, p.Name)
		}
		if compactAt[i+1] {
			ops = append(ops, writeOp{Kind: "compact"})
		}
	}
	return ops, all[:nBase], nil
}

// digest is a fingerprint of the generated inputs: the determinism
// test compares it across runs and seeds.
func (in *inputs) digest() string {
	h := sha256.New()
	for _, set := range [][]query{in.Cold, in.Hot, in.IngestHot} {
		for _, q := range set {
			h.Write([]byte(q.Name))
			h.Write(q.Body)
		}
		h.Write([]byte{0})
	}
	for _, op := range in.Writes {
		h.Write([]byte(op.Kind + "\x00" + op.Name + "\x00"))
		h.Write(op.Body)
	}
	return hex.EncodeToString(h.Sum(nil))
}
