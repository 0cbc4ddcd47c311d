package engineflags

import (
	"flag"
	"io"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestApply(t *testing.T) {
	snapshot := core.Options{
		Prefilter: core.PrefilterOff, Retrieval: core.RetrievalProbe,
		LSHBands: 8, LSHRows: 8, LSHMinContainment: 0.25, PathLen: 3, SigmoidK: 7,
	}
	for _, tc := range []struct {
		name    string
		args    []string
		load    bool // Load(snapshot) instead of Build()
		want    core.Options
		wantErr string
		warns   string
	}{
		{name: "fresh build, nothing set: lsh over scan",
			want: core.Options{Prefilter: core.PrefilterLSH, Retrieval: core.RetrievalScan}},
		{name: "fresh build, set flags override",
			args: []string{"-prefilter", "off", "-retrieval", "probe", "-workers", "3", "-pathlen", "2", "-lsh-bands", "4"},
			want: core.Options{Prefilter: core.PrefilterOff, Retrieval: core.RetrievalProbe, Workers: 3, PathLen: 2, LSHBands: 4}},
		{name: "load, nothing set: the snapshot's options",
			load: true, want: snapshot},
		{name: "load, set flags override, explicit zero included",
			args: []string{"-retrieval", "scan", "-lsh-min-containment", "0", "-workers", "2"}, load: true,
			want: core.Options{
				Prefilter: core.PrefilterOff, Retrieval: core.RetrievalScan, Workers: 2,
				LSHBands: 8, LSHRows: 8, PathLen: 3, SigmoidK: 7,
			}},
		{name: "load leaves index-time flags to the snapshot",
			args: []string{"-pathlen", "5", "-sigmoid-k", "2"}, load: true,
			want: snapshot, warns: "-pathlen is fixed at index time"},
		{name: "bad prefilter", args: []string{"-prefilter", "lhs"}, wantErr: `unknown prefilter mode "lhs"`},
		{name: "bad retrieval", args: []string{"-retrieval", "prob"}, load: true, wantErr: `unknown retrieval mode "prob"`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			var out strings.Builder
			fs.SetOutput(&out)
			f := Register(fs, Index|Query)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, err := f.Build()
			if tc.load {
				got, err = f.Load(snapshot)
			}
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("error %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
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
// takes no -workers — and the retired axes are defined nowhere.
func TestScope(t *testing.T) {
	for _, tc := range []struct {
		scope     Scope
		undefined []string
	}{
		{Query, []string{"-pathlen", "-sigmoid-k", "-kernel", "-gamma-batch"}},
		{Index, []string{"-workers", "-kernel", "-gamma-batch"}},
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
