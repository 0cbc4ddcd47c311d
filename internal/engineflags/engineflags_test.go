package engineflags

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"testing"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/index"
)

func TestApply(t *testing.T) {
	snapshot := core.Options{Workers: 4, PathLen: 3}
	for _, tc := range []struct {
		name  string
		args  []string
		load  bool // Load(snapshot) instead of Build()
		want  core.Options
		warns string
	}{
		{name: "fresh build, nothing set: scan",
			want: core.Options{}},
		{name: "fresh build, set flags override",
			args: []string{"-workers", "3", "-pathlen", "2"},
			want: core.Options{Workers: 3, PathLen: 2}},
		{name: "load, nothing set: the snapshot's options",
			load: true, want: snapshot},
		{name: "load, set flags override, explicit zero included",
			args: []string{"-workers", "0"}, load: true,
			want: core.Options{PathLen: 3}},
		{name: "load leaves index-time flags to the snapshot",
			args: []string{"-pathlen", "5"}, load: true,
			want: snapshot, warns: "-pathlen is fixed at index time"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			var out strings.Builder
			fs.SetOutput(&out)
			f := Register(fs, Index|Query)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got := f.Build()
			if tc.load {
				got = f.Load(snapshot)
			}
			if got != tc.want {
				t.Errorf("options %+v\nwant    %+v", got, tc.want)
			}
			if !strings.Contains(out.String(), tc.warns) || (tc.warns == "" && out.Len() > 0) {
				t.Errorf("output %q, want it to contain %q", out.String(), tc.warns)
			}
		})
	}
}

// TestScope: a binary registers only the flags that mean something for
// it — eshd (Query) cannot set index-time options, eshcorpus (Index)
// takes no -workers — and the retired axes, -prefilter, -retrieval, the
// LSH geometry, the heuristic tier's -lsh-min-containment and the sigmoid
// steepness -sigmoid-k among them, are defined nowhere.
func TestScope(t *testing.T) {
	for _, tc := range []struct {
		scope     Scope
		undefined []string
	}{
		{Query, []string{"-pathlen", "-kernel", "-gamma-batch", "-prefilter", "-retrieval", "-lsh-bands", "-lsh-rows", "-lsh-min-containment", "-sigmoid-k"}},
		{Index, []string{"-workers", "-kernel", "-gamma-batch", "-prefilter", "-retrieval", "-lsh-bands", "-lsh-rows", "-lsh-min-containment", "-sigmoid-k"}},
		{Index | Query, []string{"-kernel", "-gamma-batch", "-prefilter", "-retrieval", "-lsh-bands", "-lsh-rows", "-lsh-min-containment", "-sigmoid-k"}},
	} {
		for _, name := range tc.undefined {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			Register(fs, tc.scope)
			if err := fs.Parse([]string{name, "1"}); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
				t.Errorf("scope %d: %s parsed (err %v), want undefined", tc.scope, name, err)
			}
		}
	}
}

// TestFlagBounds walks every engine flag at −1, 0, 2 and one past the
// largest int. Each value is refused as the flag is parsed, with the
// snapshot codec's own bound (core.CheckCount), so no engine is built and
// nothing is written; or the engine takes it as given: -workers into
// Build's options, -pathlen through a snapshot saved and loaded back to
// the same core.Options.
func TestFlagBounds(t *testing.T) {
	proc, err := asm.ParseProc("proc mix\n\tmov rax, rdi\n\timul rax, rsi\n\tadd rax, rdx\n\tshr rax, 3\n\txor rax, rdi\n\tret\nendp")
	if err != nil {
		t.Fatal(err)
	}
	pastMax := strconv.FormatUint(uint64(math.MaxInt)+1, 10)
	for _, name := range []string{"workers", "pathlen"} {
		for _, val := range []string{"-1", "0", "2", pastMax} {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			f := Register(fs, Index|Query)
			err := fs.Parse([]string{"-" + name, val})
			switch val {
			case "-1":
				want := fmt.Sprintf(`invalid value "-1" for flag -%s: count -1: want a value >= 0`, name)
				if err == nil || err.Error() != want {
					t.Errorf("-%s -1: error %v, want %q", name, err, want)
				}
				continue
			case pastMax:
				if err == nil || !strings.Contains(err.Error(), "value out of range") {
					t.Errorf("-%s %s: error %v, want out of range", name, val, err)
				}
				continue
			}
			if err != nil {
				t.Errorf("-%s %s: %v", name, val, err)
				continue
			}
			n, _ := strconv.Atoi(val)
			opts := f.Build()
			if name == "workers" {
				if opts != (core.Options{Workers: n}) {
					t.Errorf("-workers %s: options %+v", val, opts)
				}
				continue
			}
			if opts != (core.Options{PathLen: n}) {
				t.Errorf("-pathlen %s: options %+v", val, opts)
			}
			db := core.NewDB(opts)
			if err := db.AddTarget(proc); err != nil {
				t.Fatal(err)
			}
			var snap bytes.Buffer
			if _, err := index.SaveExportCtx(context.Background(), &snap, db.Export()); err != nil {
				t.Errorf("-pathlen %s: save: %v", val, err)
				continue
			}
			loaded, _, err := index.LoadInfoCtx(context.Background(), &snap, nil)
			if err != nil {
				t.Errorf("-pathlen %s: load: %v", val, err)
				continue
			}
			if loaded.Options() != db.Options() {
				t.Errorf("-pathlen %s: loaded %+v, saved %+v", val, loaded.Options(), db.Options())
			}
		}
	}
}
