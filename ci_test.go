package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCINamesTests holds .github/workflows/ci.yml to the tree. Every guard
// step there is `go test -run 'TestA|TestB' ./pkg` or `-fuzz=FuzzX`, and go
// test exits 0 with "no tests to run" when nothing matches — so a renamed or
// merged test silently turns its guard into a step that runs nothing. Each
// -run alternative and each -fuzz target must match a func Test…/Fuzz… in a
// _test.go file of the package the step names.
func TestCINamesTests(t *testing.T) {
	yml, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	flag := func(name, line string) string {
		m := regexp.MustCompile(`\s-` + name + `[ =](?:'([^']*)'|(\S+))`).FindStringSubmatch(line)
		if m == nil {
			return ""
		}
		return m[1] + m[2]
	}
	pkgArg := regexp.MustCompile(`\s(\.(?:/[\w./-]+)?)(?:\s|$)`)
	funcDecl := regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	declared := map[string][]string{} // package dir → its Test and Fuzz functions
	runs, fuzzes := 0, 0
	for n, line := range strings.Split(string(yml), "\n") {
		if !strings.Contains(line, "go test ") {
			continue
		}
		var patterns []string
		if run := flag("run", line); run != "" && run != "^$" {
			patterns = strings.Split(run, "|")
			runs += len(patterns)
		}
		if fuzz := flag("fuzz", line); fuzz != "" {
			patterns = append(patterns, "^"+fuzz+"$")
			fuzzes++
		}
		if len(patterns) == 0 {
			continue
		}
		pkgs := pkgArg.FindAllStringSubmatch(line, -1)
		if len(pkgs) != 1 || strings.Contains(pkgs[0][1], "...") {
			t.Errorf("ci.yml:%d: want one package directory on a line that names tests: %s", n+1, strings.TrimSpace(line))
			continue
		}
		dir := pkgs[0][1]
		if _, seen := declared[dir]; !seen {
			files, _ := filepath.Glob(filepath.Join(dir, "*_test.go"))
			for _, f := range files {
				src, err := os.ReadFile(f)
				if err != nil {
					t.Fatal(err)
				}
				for _, m := range funcDecl.FindAllSubmatch(src, -1) {
					declared[dir] = append(declared[dir], string(m[1]))
				}
			}
		}
		for _, p := range patterns {
			re, err := regexp.Compile(p)
			if err != nil {
				t.Errorf("ci.yml:%d: pattern %q: %v", n+1, p, err)
				continue
			}
			if !matchesAny(re, declared[dir], strings.HasPrefix(p, "^Fuzz")) {
				t.Errorf("ci.yml:%d: %q matches no test function in %s: the step would run nothing", n+1, p, dir)
			}
		}
	}
	if runs == 0 || fuzzes == 0 {
		t.Fatalf("found %d -run alternatives and %d -fuzz targets in ci.yml: the scan itself is broken", runs, fuzzes)
	}
	t.Logf("checked %d -run alternatives and %d -fuzz targets", runs, fuzzes)
}

func matchesAny(re *regexp.Regexp, names []string, fuzz bool) bool {
	for _, name := range names {
		if strings.HasPrefix(name, "Fuzz") == fuzz && re.MatchString(name) {
			return true
		}
	}
	return false
}
