package strand

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/cfg"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/ivl"
	"repro/internal/lift"
)

// referenceKey is CanonicalKey as it was first written — rename the tree
// through fmt-built names, then print it with the String methods. Keys are
// snapshot content and cache identity, so the production builder is pinned
// to it byte for byte.
func referenceKey(s *Strand) string {
	names := map[string]string{}
	next := 0
	canon := func(v ivl.Var) ivl.Var {
		n, ok := names[v.Name]
		if !ok {
			n = fmt.Sprintf("x%d", next)
			next++
			names[v.Name] = n
		}
		return ivl.Var{Name: n, Type: v.Type}
	}
	var b strings.Builder
	for _, in := range s.Inputs {
		b.WriteString(canon(in).Name)
		b.WriteByte(':')
		b.WriteString(in.Type.String())
		b.WriteByte(';')
	}
	b.WriteByte('|')
	for _, st := range s.Stmts {
		rhs := ivl.Rename(st.Rhs, canon)
		b.WriteString(canon(st.Dst).Name)
		b.WriteByte('=')
		b.WriteString(rhs.String())
		b.WriteByte(';')
	}
	return b.String()
}

// TestCanonicalKeyMatchesReference checks every strand of the compiled
// test-bed corpus (three toolchains, patched variants included).
func TestCanonicalKeyMatchesReference(t *testing.T) {
	var tcs []compile.Toolchain
	for _, n := range []string{"gcc-4.9", "clang-3.5", "icc-15.0.1"} {
		tc, ok := compile.ByName(n)
		if !ok {
			t.Fatalf("unknown toolchain %q", n)
		}
		tcs = append(tcs, tc)
	}
	procs, err := corpus.Build(corpus.BuildConfig{Toolchains: tcs, IncludePatched: true})
	if err != nil {
		t.Fatal(err)
	}
	strands, distinct := 0, map[string]bool{}
	for _, p := range procs {
		g, err := cfg.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		lp, err := lift.LiftProc(g)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range FromProc(lp) {
			want := referenceKey(s)
			if got := s.CanonicalKey(); got != want {
				t.Fatalf("%s: key diverges from the reference\n got %s\nwant %s", p.Name, got, want)
			}
			if again := s.CanonicalKey(); again != want {
				t.Fatalf("%s: memoized key differs from the first", p.Name)
			}
			strands++
			distinct[want] = true
		}
	}
	if strands < 1000 || len(distinct) < 100 {
		t.Fatalf("corpus too small to pin anything: %d strands, %d distinct keys", strands, len(distinct))
	}
}
