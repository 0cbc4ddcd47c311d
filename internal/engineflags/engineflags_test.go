package engineflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
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
