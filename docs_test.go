package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// liveDocs are the documents held to the live surface. cmd/eshbench/README.md
// belongs to the benchmark and is kept with it.
var liveDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// goToolFlags are the go command's and go test's flags the docs may name
// beside the binaries' own; -h is the flag package's built-in help.
var goToolFlags = []string{"bench", "benchmem", "benchtime", "count", "cover", "cpu", "fuzz", "fuzztime", "h", "o", "race", "run", "short", "timeout", "v"}

// retiredKinds are the kinds a row of DESIGN.md's Retired surface table may
// name, each with its own test of liveness.
var retiredKinds = map[string]bool{
	"flag": true, "snapshot key": true, "metric family": true, "stats key": true,
	"type or package": true, "file": true, "format or wire version": true,
}

// fileExts mark a dotted word as a file name, not a stats key or ledger row.
var fileExts = map[string]bool{
	"go": true, "md": true, "json": true, "yml": true, "yaml": true, "sh": true, "golden": true,
	"txt": true, "s": true, "log": true, "eshidx": true, "wal": true, "manifest": true, "out": true,
}

// TestDocsNameLiveSurface holds the docs to the tree. Every flag, metric
// family, /v1/stats key, ledger row, Go identifier, test name and path that
// README.md, DESIGN.md, EXPERIMENTS.md and the verify skill name must exist
// today, except in DESIGN.md's one Retired surface table, whose names must
// not. DESIGN.md §3 must list every cmd/* and internal/* directory once. The
// surface is read from the source (go/parser), the served-surface golden
// and the directory tree; nothing is built.
func TestDocsNameLiveSurface(t *testing.T) {
	s, err := loadSurface(".")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.flags) <= len(goToolFlags) || len(s.families) == 0 || len(s.stats) == 0 || len(s.ledger) == 0 {
		t.Fatalf("surface has %d flags, %d metric families, %d stats keys, %d ledger rows: the scan itself is broken",
			len(s.flags)-len(goToolFlags), len(s.families), len(s.stats), len(s.ledger))
	}

	t.Run("rules", func(t *testing.T) { checkRules(t, s) })

	var problems []string
	var seen tally
	for _, name := range liveDocs {
		text, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		r := s.check(name, string(text))
		problems = append(problems, r.problems...)
		seen.add(r.seen)
		want := 0
		if name == "DESIGN.md" {
			want = 1
			if !r.inventory {
				problems = append(problems, "DESIGN.md: no Package inventory section")
			}
		}
		if r.retiredTables != want {
			problems = append(problems, fmt.Sprintf("%s: %d Retired surface tables, want %d", name, r.retiredTables, want))
		}
	}
	for _, p := range problems {
		t.Error(p)
	}
	if seen.flags == 0 || seen.families == 0 || seen.stats == 0 {
		t.Fatalf("the docs name %d flags, %d metric families and %d stats keys: the scan itself is broken",
			seen.flags, seen.families, seen.stats)
	}
	t.Logf("checked %d flags, %d metric families, %d stats keys or ledger rows, %d identifiers, %d test names, %d paths, %d retired names",
		seen.flags, seen.families, seen.stats, seen.idents, seen.tests, seen.paths, seen.retired)
}

// checkRules feeds each rule a stale name in synthetic markdown and requires
// the report to name it; a document naming only live things reports nothing.
func checkRules(t *testing.T, s *liveSurface) {
	inventory := "## 3. Package inventory\n\n| package | role |\n|---|---|\n"
	for _, d := range s.dirs {
		if d != "internal/wal" {
			inventory += "| `" + d + "` | role |\n"
		}
	}
	cases := []struct {
		name, doc, want string
	}{
		{"live names pass", "Run `esh -load x.eshidx -top 5`, read `esh_vcp_memo_{hits,misses}_total`, " +
			"`esh_http_query_seconds_bucket`, `esh_go_*`, `.engine.memo.bytes`, `index.load_s`, `sketch.Index.Candidates`, " +
			"`TestCINamesTests`, `internal/core/rowcache.go`, `ci_test.go`, `_test.go` and `go test -race -count=10 ./internal/core`.\n" +
			"```sh\n./eshd -index corpus.eshidx -wal corpus.wal | jq -c .writes\n```\n", ""},
		{"stale flag in a span", "Use `-lsh-bands 12`.\n", "flag -lsh-bands"},
		{"stale flag on a fenced command", "```sh\ngo run ./cmd/eshcorpus -save x -retrieval probe\n```\n", "flag -retrieval"},
		{"stale metric family", "Scrape `esh_retrieval_*`.\n", "metric family esh_retrieval_*"},
		{"stale family in a brace form", "See esh_vcp_memo_{hits,lookups}_total.\n", "metric family esh_vcp_memo_lookups_total"},
		{"stale stats key", "Read `.prefilter.lsh_bands`.\n", "stats key prefilter.lsh_bands"},
		{"missing test", "Pinned by `TestNoSuchGuard`.\n", "TestNoSuchGuard"},
		{"undeclared identifier", "Built by `sketch.RetrievalIndex`.\n", "sketch.RetrievalIndex"},
		{"undeclared field", "Set `core.Options.Retrieval`.\n", "core.Options.Retrieval"},
		{"missing package", "See internal/verifier.\n", "internal/verifier"},
		{"missing path", "See `internal/sketch/retrieval.go`.\n", "path internal/sketch/retrieval.go"},
		{"missing file", "Read `BENCH_cluster.json`.\n", "file BENCH_cluster.json"},
		{"missing directory in the inventory", inventory, "no row for internal/wal"},
		{"retired name still live", "## 15. Retired surface\n\n| name | kind | why it went | PR |\n|---|---|---|---|\n" +
			"| `-workers` | flag | never | 1 |\n| `sigmoidk=` | snapshot key | never | 1 |\n", "retired flag -workers is registered"},
		{"retired snapshot key still read", "## Retired surface\n\n| name | kind | why | PR |\n|---|---|---|---|\n| `sigmoidk=` | snapshot key | never | 1 |\n",
			"retired snapshot key sigmoidk= is read or written"},
		{"retired row of no known kind", "## Retired surface\n\n| name | kind | why | PR |\n|---|---|---|---|\n| `x` | gadget | never | 1 |\n", `kind "gadget"`},
	}
	for _, c := range cases {
		r := s.check("case.md", c.doc)
		got := strings.Join(r.problems, "\n")
		switch {
		case c.want == "" && got != "":
			t.Errorf("%s: want no problem, got:\n%s", c.name, got)
		case c.want != "" && !strings.Contains(got, c.want):
			t.Errorf("%s: want a problem naming %q, got:\n%s", c.name, c.want, got)
		}
	}
}

// liveSurface is what the tree declares, serves and holds today.
type liveSurface struct {
	flags     map[string]bool            // registered by a cmd/* binary or engineflags, plus goToolFlags
	families  map[string]string          // metric family → type, from the served-surface golden
	stats     map[string]bool            // /v1/stats keys of eshd and eshgw and every prefix of one
	statsTop  map[string]bool            // their first segments
	ledger    map[string]bool            // eshbench ledger rows
	ledgerTop map[string]bool            // their first segments
	spans     map[string]bool            // span names the code starts
	decls     map[string]map[string]bool // package → declared identifiers, methods and fields
	consts    map[string]map[string]int  // package → integer constants
	funcs     map[string]bool            // Test, Fuzz and Benchmark functions
	dirs      []string                   // cmd/* and internal/*
	files     map[string]bool            // every file and directory path, and every base name
	optKeys   map[string]bool            // option keys the snapshot and manifest codecs read or write
	binaries  map[string]bool            // cmd/* names
}

func loadSurface(root string) (*liveSurface, error) {
	s := &liveSurface{
		flags: map[string]bool{}, families: map[string]string{}, stats: map[string]bool{}, statsTop: map[string]bool{},
		ledger: map[string]bool{}, ledgerTop: map[string]bool{}, spans: map[string]bool{}, decls: map[string]map[string]bool{},
		consts: map[string]map[string]int{}, funcs: map[string]bool{}, files: map[string]bool{}, optKeys: map[string]bool{},
		binaries: map[string]bool{},
	}
	for _, f := range goToolFlags {
		s.flags[f] = true
	}
	for _, top := range []string{"cmd", "internal"} {
		entries, err := os.ReadDir(filepath.Join(root, top))
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if e.IsDir() {
				s.dirs = append(s.dirs, top+"/"+e.Name())
				if top == "cmd" {
					s.binaries[e.Name()] = true
				}
			}
		}
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		rel = filepath.ToSlash(rel)
		if d.IsDir() && rel != "." && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		s.files[rel] = true
		s.files[d.Name()] = true
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.Contains(rel, "/testdata/") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		s.addFile(rel, f)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, s.loadGolden(filepath.Join(root, "internal/server/testdata/surface.golden"))
}

// addFile records what one Go file declares, registers and starts.
func (s *liveSurface) addFile(rel string, f *ast.File) {
	parts := strings.Split(rel, "/")
	pkg := ""
	if len(parts) == 3 && (parts[0] == "cmd" || parts[0] == "internal") {
		pkg = parts[1]
	}
	test := strings.HasSuffix(rel, "_test.go")
	flagOwner := !test && (parts[0] == "cmd" || pkg == "engineflags")
	codec := !test && (pkg == "index" || pkg == "shard")
	declare := func(name string) {
		if pkg == "" {
			return
		}
		if s.decls[pkg] == nil {
			s.decls[pkg] = map[string]bool{}
		}
		s.decls[pkg][name] = true
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name.Name)
			if test && d.Recv == nil && testRE.MatchString(d.Name.Name) {
				s.funcs[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					declare(spec.Name.Name)
					ast.Inspect(spec.Type, func(n ast.Node) bool {
						if field, ok := n.(*ast.Field); ok {
							for _, name := range field.Names {
								declare(name.Name)
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for i, name := range spec.Names {
						declare(name.Name)
						if d.Tok != token.CONST || i >= len(spec.Values) || pkg == "" {
							continue
						}
						if lit, ok := spec.Values[i].(*ast.BasicLit); ok && lit.Kind == token.INT {
							if v, err := strconv.Atoi(lit.Value); err == nil {
								if s.consts[pkg] == nil {
									s.consts[pkg] = map[string]int{}
								}
								s.consts[pkg][name.Name] = v
							}
						}
					}
				}
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch name := sel.Sel.Name; {
			case flagOwner && isFlagFunc(name):
				i := 0
				if strings.HasSuffix(name, "Var") {
					i = 1
				}
				if v, ok := stringArg(n, i); ok {
					s.flags[v] = true
				}
			case !test && name == "StartSpan":
				if v, ok := stringArg(n, 1); ok {
					s.spans[v] = true
				}
			}
		case *ast.CaseClause:
			for _, e := range n.List {
				if lit, ok := e.(*ast.BasicLit); codec && ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					s.optKeys[v] = true
				}
			}
		case *ast.BasicLit:
			if n.Kind != token.STRING {
				return true
			}
			v, _ := strconv.Unquote(n.Value)
			if codec {
				for _, m := range optFormatRE.FindAllStringSubmatch(v, -1) {
					s.optKeys[m[1]] = true
				}
			}
		case *ast.KeyValueExpr:
			if key, ok := n.Key.(*ast.Ident); ok && key.Name == "Name" && rel == "cmd/eshbench/metrics.go" {
				if lit, ok := n.Value.(*ast.BasicLit); ok && lit.Kind == token.STRING {
					v, _ := strconv.Unquote(lit.Value)
					s.ledger[v] = true
					if i := strings.IndexByte(v, '.'); i > 0 {
						s.ledgerTop[v[:i]] = true
					}
				}
			}
		}
		return true
	})
}

func isFlagFunc(name string) bool {
	switch name {
	case "String", "Int", "Int64", "Uint", "Uint64", "Bool", "Float64", "Duration", "Func", "BoolFunc",
		"StringVar", "IntVar", "Int64Var", "UintVar", "Uint64Var", "BoolVar", "Float64Var", "DurationVar", "TextVar", "Var":
		return true
	}
	return false
}

func stringArg(call *ast.CallExpr, i int) (string, bool) {
	if i >= len(call.Args) {
		return "", false
	}
	lit, ok := call.Args[i].(*ast.BasicLit)
	if !ok || lit.Kind != token.STRING {
		return "", false
	}
	v, err := strconv.Unquote(lit.Value)
	return v, err == nil
}

// loadGolden reads the metric families and /v1/stats keys every daemon
// serves. Each daemon's block is three sections ended by "--": TYPE lines,
// label sets, stats key paths.
func (s *liveSurface) loadGolden(path string) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	section := 0
	for _, line := range strings.Split(string(b), "\n") {
		switch {
		case strings.HasPrefix(line, "== "):
			section = 0
		case line == "--":
			section++
		case section == 0 && strings.HasPrefix(line, "# TYPE "):
			f := strings.Fields(line)
			s.families[f[2]] = f[3]
		case section == 2 && line != "":
			segs := strings.Split(line, ".")
			s.statsTop[segs[0]] = true
			for i := range segs {
				s.stats[strings.Join(segs[:i+1], ".")] = true
			}
		}
	}
	return nil
}

// statsKey reports whether a dotted path is a served /v1/stats key or the
// prefix of one; "latency_ms.*" in the golden stands for any bucket.
func (s *liveSurface) statsKey(path string) bool {
	if strings.HasSuffix(path, ".*") {
		return s.stats[path] || s.stats[strings.TrimSuffix(path, ".*")]
	}
	if s.stats[path] {
		return true
	}
	i := strings.LastIndexByte(path, '.')
	return i > 0 && s.stats[path[:i]+".*"]
}

// family reports whether an esh_* name (brace forms already expanded) is a
// served family, a histogram's series, or — with a trailing * — the prefix of
// at least one family.
func (s *liveSurface) family(name string) bool {
	if named(s.families, name) {
		return true
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && s.families[base] == "histogram" {
			return true
		}
	}
	return false
}

// named reports whether name is a key of set or, with a trailing *, the
// prefix of at least one.
func named[V any](set map[string]V, name string) bool {
	prefix, ok := strings.CutSuffix(name, "*")
	if !ok {
		_, ok = set[name]
		return ok
	}
	for k := range set {
		if strings.HasPrefix(k, prefix) {
			return true
		}
	}
	return false
}

type tally struct{ flags, families, stats, idents, tests, paths, retired int }

func (t *tally) add(o tally) {
	t.flags += o.flags
	t.families += o.families
	t.stats += o.stats
	t.idents += o.idents
	t.tests += o.tests
	t.paths += o.paths
	t.retired += o.retired
}

type docReport struct {
	problems      []string
	seen          tally
	retiredTables int
	inventory     bool
}

var (
	spanRE      = regexp.MustCompile("`([^`]+)`")
	familyRE    = regexp.MustCompile(`\besh((?:_\{[a-z0-9_,]+\}|_[a-z0-9]+)+)(_?\*)?`)
	dottedRE    = regexp.MustCompile(`(?:^|[^A-Za-z0-9_/.$\-])\.?([A-Za-z][A-Za-z0-9_]*(?:\.(?:[A-Za-z0-9_]+\*?|\*))+)`)
	identRE     = regexp.MustCompile(`\b([a-z][a-z0-9]*)\.([A-Z][A-Za-z0-9_]*)(?:\.([A-Z][A-Za-z0-9_]*))?`)
	testRE      = regexp.MustCompile(`\b((?:Test|Fuzz|Benchmark)[A-Z0-9][A-Za-z0-9_]*\*?)`)
	internalRE  = regexp.MustCompile(`\binternal/([a-z0-9_]+)`)
	flagRE      = regexp.MustCompile(`^--?([A-Za-z][A-Za-z0-9-]*)(?:=.*)?$`)
	pathRE      = regexp.MustCompile(`^(?:\./)?([A-Za-z0-9_.\-]+(?:/[A-Za-z0-9_.\-]+)+)/?(?:/\.\.\.)?$`)
	fileRE      = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.\-]*\.(?:go|md|json|yml|yaml|sh|golden|txt)$`)
	invRowRE    = regexp.MustCompile("^\\|?\\s*`?((?:cmd|internal)/[a-z0-9_]+)")
	prRE        = regexp.MustCompile(`^(PR )?\d+`)
	optFormatRE = regexp.MustCompile(`(\w+)=%`)
	versionRE   = regexp.MustCompile(`(\d+)(?:[–-]v?(\d+))?`)
)

// check runs every rule over one document.
func (s *liveSurface) check(name, text string) docReport {
	var r docReport
	lines := strings.Split(text, "\n")
	const (
		prose = iota
		fence
		retired
	)
	kind := make([]int, len(lines))
	inFence, underRetired := false, false
	inventoryFrom, inventoryTo := -1, len(lines)
	for i, l := range lines {
		trim := strings.TrimSpace(l)
		switch {
		case strings.HasPrefix(trim, "```"):
			kind[i], inFence = fence, !inFence
		case inFence:
			kind[i] = fence
		case strings.HasPrefix(trim, "#"):
			underRetired = strings.Contains(strings.ToLower(trim), "retired surface")
			if underRetired {
				r.retiredTables++
			}
			if strings.HasPrefix(trim, "## ") && inventoryFrom >= 0 && inventoryTo == len(lines) {
				inventoryTo = i
			}
			if strings.Contains(trim, "Package inventory") {
				inventoryFrom, inventoryTo = i, len(lines)
			}
		case underRetired && strings.HasPrefix(trim, "|"):
			kind[i] = retired
		}
	}
	only := func(k int) string {
		out := make([]string, len(lines))
		for i, l := range lines {
			if kind[i] == k {
				out[i] = l
			}
		}
		return strings.Join(out, "\n")
	}
	report := func(offset int, text, format string, args ...any) {
		line := strings.Count(text[:offset], "\n") + 1
		r.problems = append(r.problems, fmt.Sprintf("%s:%d: %s", name, line, fmt.Sprintf(format, args...)))
	}

	proseText, fenceText := only(prose), only(fence)
	for _, t := range []string{proseText, fenceText} {
		s.checkText(&r, t, report)
	}
	for _, m := range spanRE.FindAllStringSubmatchIndex(proseText, -1) {
		span := strings.Join(strings.Fields(proseText[m[2]:m[3]]), " ")
		s.checkSpan(&r, span, func(format string, args ...any) { report(m[0], proseText, format, args...) })
	}
	for i := 0; i < len(lines); i++ {
		if kind[i] != fence {
			continue
		}
		start, cmd := i, lines[i]
		for strings.HasSuffix(strings.TrimSpace(cmd), `\`) && i+1 < len(lines) && kind[i+1] == fence {
			i++
			cmd = strings.TrimSuffix(strings.TrimSpace(cmd), `\`) + " " + lines[i]
		}
		if c := strings.Index(cmd, " #"); c >= 0 {
			cmd = cmd[:c]
		}
		s.checkCommands(&r, strings.TrimPrefix(strings.TrimSpace(cmd), "$ "), false, func(format string, args ...any) {
			r.problems = append(r.problems, fmt.Sprintf("%s:%d: %s", name, start+1, fmt.Sprintf(format, args...)))
		})
	}

	if inventoryFrom >= 0 {
		r.inventory = true
		rows := map[string]int{}
		for _, l := range lines[inventoryFrom:inventoryTo] {
			if m := invRowRE.FindStringSubmatch(strings.TrimSpace(l)); m != nil {
				rows[m[1]]++
			}
		}
		for _, d := range s.dirs {
			switch rows[d] {
			case 0:
				r.problems = append(r.problems, fmt.Sprintf("%s: package inventory has no row for %s", name, d))
			case 1:
			default:
				r.problems = append(r.problems, fmt.Sprintf("%s: package inventory lists %s %d times", name, d, rows[d]))
			}
			delete(rows, d)
		}
		for d := range rows {
			r.problems = append(r.problems, fmt.Sprintf("%s: package inventory lists %s, which is not a directory", name, d))
		}
	}

	header := true
	for i, l := range lines {
		if kind[i] != retired {
			header = true
			continue
		}
		cells := strings.Split(strings.Trim(strings.TrimSpace(l), "|"), "|")
		if header || strings.HasPrefix(strings.TrimSpace(cells[0]), "---") {
			header = false
			continue
		}
		s.checkRetired(&r, cells, func(format string, args ...any) {
			r.problems = append(r.problems, fmt.Sprintf("%s:%d: %s", name, i+1, fmt.Sprintf(format, args...)))
		})
	}
	sort.Strings(r.problems)
	return r
}

// checkText runs the rules that apply anywhere outside the Retired table:
// metric families, stats keys and ledger rows, Go identifiers, test names
// and internal/ directories.
func (s *liveSurface) checkText(r *docReport, text string, report func(int, string, string, ...any)) {
	for _, m := range familyRE.FindAllStringSubmatchIndex(text, -1) {
		for _, f := range expandBraces(text[m[0]:m[1]]) {
			r.seen.families++
			if !s.family(f) {
				report(m[0], text, "metric family %s is not in internal/server/testdata/surface.golden", f)
			}
		}
	}
	for _, m := range dottedRE.FindAllStringSubmatchIndex(text, -1) {
		path := text[m[2]:m[3]]
		segs := strings.Split(path, ".")
		if path != strings.ToLower(path) || fileExts[segs[len(segs)-1]] || fileExts[segs[1]] {
			continue
		}
		if !s.statsTop[segs[0]] && !s.ledgerTop[segs[0]] {
			continue
		}
		r.seen.stats++
		if !s.spans[path] && !named(s.ledger, path) && !(s.statsTop[segs[0]] && s.statsKey(path)) {
			report(m[2], text, "stats key %s is served by no daemon, and no ledger row or span has that name", path)
		}
	}
	for _, m := range identRE.FindAllStringSubmatchIndex(text, -1) {
		pkg, ident, field := text[m[2]:m[3]], text[m[4]:m[5]], ""
		if m[6] >= 0 {
			field = text[m[6]:m[7]]
		}
		if s.decls[pkg] == nil {
			continue
		}
		r.seen.idents++
		if d := s.decls[pkg]; !d[ident] || field != "" && !d[field] {
			report(m[0], text, "%s is not declared in %s", strings.TrimSuffix(pkg+"."+ident+"."+field, "."), pkg)
		}
	}
	for _, m := range testRE.FindAllStringSubmatchIndex(text, -1) {
		r.seen.tests++
		if name := text[m[2]:m[3]]; !named(s.funcs, name) {
			report(m[0], text, "%s is declared in no _test.go file", name)
		}
	}
	for _, m := range internalRE.FindAllStringSubmatchIndex(text, -1) {
		r.seen.paths++
		if d := "internal/" + text[m[2]:m[3]]; !s.files[d] {
			report(m[0], text, "%s is not a directory", d)
		}
	}
}

// checkSpan runs the rules for one inline code span: the flags it passes,
// and the path or file it names.
func (s *liveSurface) checkSpan(r *docReport, span string, report func(string, ...any)) {
	s.checkCommands(r, span, strings.HasPrefix(span, "-"), report)
	if strings.ContainsAny(span, " *{}=:") || strings.HasPrefix(span, "/") || strings.HasPrefix(span, "_") {
		return
	}
	if m := pathRE.FindStringSubmatch(span); m != nil {
		r.seen.paths++
		if !s.files[m[1]] && !stdPackage(m[1]) {
			report("path %s does not exist", m[1])
		}
	} else if fileRE.MatchString(span) {
		r.seen.paths++
		if !s.files[span] {
			report("file %s is nowhere in the tree", span)
		}
	}
}

// stdPackage reports whether path is a standard library package, which the
// docs may name as a path (encoding/json).
func stdPackage(path string) bool {
	p, err := build.Import(path, "", build.FindOnly)
	return err == nil && p.Goroot
}

// checkCommands checks the flags of every command in a shell line that runs
// a repo binary or the go tool; all reads every flag-shaped word (a span that
// starts with a flag).
func (s *liveSurface) checkCommands(r *docReport, line string, all bool, report func(string, ...any)) {
	for _, words := range shellCommands(line) {
		from := 0
		if !all {
			cmd := words[0]
			if cmd == "go" && len(words) > 2 && words[1] == "run" && strings.HasPrefix(words[2], "./cmd/") {
				from = 3
			} else if s.binaries[filepath.Base(cmd)] || cmd == "go" {
				from = 1
			} else {
				continue
			}
		}
		for _, w := range words[from:] {
			if m := flagRE.FindStringSubmatch(w); m != nil {
				r.seen.flags++
				if !s.flags[m[1]] {
					report("flag -%s is registered by no binary", m[1])
				}
			}
		}
	}
}

// shellCommands splits a shell line into commands at unquoted |, ;, & and
// &&, and each command into words.
func shellCommands(line string) [][]string {
	var cmds [][]string
	var words []string
	var word strings.Builder
	var quote rune
	flush := func() {
		if word.Len() > 0 {
			words = append(words, word.String())
			word.Reset()
		}
	}
	end := func() {
		flush()
		if len(words) > 0 {
			cmds = append(cmds, words)
		}
		words = nil
	}
	for _, c := range line {
		switch {
		case quote != 0:
			if c == quote {
				quote = 0
			}
			word.WriteRune(c)
		case c == '\'' || c == '"':
			quote = c
			word.WriteRune(c)
		case c == '|' || c == ';' || c == '&':
			end()
		case c == ' ' || c == '\t':
			flush()
		default:
			word.WriteRune(c)
		}
	}
	end()
	return cmds
}

// checkRetired judges one Retired surface row: a known kind, a reason, a PR,
// and names that are no longer live.
func (s *liveSurface) checkRetired(r *docReport, cells []string, report func(string, ...any)) {
	if len(cells) != 4 {
		report("Retired surface row has %d cells, want name | kind | why it went | PR", len(cells))
		return
	}
	kind, why, pr := strings.TrimSpace(cells[1]), strings.TrimSpace(cells[2]), strings.TrimSpace(cells[3])
	if !retiredKinds[kind] {
		report("Retired surface row has kind %q", kind)
		return
	}
	if why == "" || !prRE.MatchString(pr) {
		report("Retired surface row %s needs a reason and a PR", cells[0])
	}
	names := spanRE.FindAllStringSubmatch(cells[0], -1)
	if len(names) == 0 {
		report("Retired surface row names nothing in backticks: %s", cells[0])
	}
	for _, m := range names {
		name := m[1]
		r.seen.retired++
		live := false
		switch kind {
		case "flag":
			for _, w := range strings.Fields(name) {
				if f := flagRE.FindStringSubmatch(w); f != nil && s.flags[f[1]] {
					live = true
				}
			}
		case "snapshot key":
			live = s.optKeys[strings.TrimSuffix(name, "=")]
		case "metric family":
			for _, f := range expandBraces(name) {
				live = live || s.family(f)
			}
		case "stats key":
			live = s.statsKey(strings.TrimPrefix(name, "."))
		case "type or package":
			if d, ok := strings.CutPrefix(name, "internal/"); ok {
				live = s.files["internal/"+d]
			} else if id := identRE.FindStringSubmatch(name); id != nil {
				if id[3] != "" {
					live = s.decls[id[1]][id[3]]
				} else {
					live = s.decls[id[1]][id[2]]
				}
			} else {
				report("cannot judge retired %s %s: want internal/<name> or pkg.Ident", kind, name)
				continue
			}
		case "file":
			live = s.files[strings.TrimPrefix(name, "./")]
		case "format or wire version":
			live = s.versionLive(name, report)
		}
		if live {
			verb := map[string]string{
				"flag": "is registered by a binary", "snapshot key": "is read or written by a codec",
				"metric family": "is served", "stats key": "is served", "type or package": "is declared",
				"file": "exists", "format or wire version": "is current",
			}[kind]
			report("retired %s %s %s", kind, name, verb)
		}
	}
}

// versionLive reports whether a retired version row ("snapshot v1–v5",
// "frame v2") names the version the code writes today.
func (s *liveSurface) versionLive(name string, report func(string, ...any)) bool {
	current := map[string]struct{ pkg, name string }{
		"snapshot": {"index", "Version"}, "manifest": {"shard", "ManifestVersion"}, "frame": {"shard", "WireVersion"},
	}[strings.Fields(name)[0]]
	v, ok := s.consts[current.pkg][current.name]
	if !ok {
		report("cannot judge retired version %s: want snapshot, manifest or frame and its numbers", name)
		return false
	}
	for _, m := range versionRE.FindAllStringSubmatch(name, -1) {
		lo, _ := strconv.Atoi(m[1])
		hi := lo
		if m[2] != "" {
			hi, _ = strconv.Atoi(m[2])
		}
		if lo <= v && v <= hi {
			return true
		}
	}
	return false
}

// expandBraces turns esh_a_{b,c}_d into esh_a_b_d and esh_a_c_d.
func expandBraces(s string) []string {
	i := strings.IndexByte(s, '{')
	if i < 0 {
		return []string{s}
	}
	j := i + strings.IndexByte(s[i:], '}')
	var out []string
	for _, alt := range strings.Split(s[i+1:j], ",") {
		out = append(out, expandBraces(s[:i]+alt+s[j+1:])...)
	}
	return out
}
