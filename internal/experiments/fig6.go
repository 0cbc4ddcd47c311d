package experiments

import (
	"fmt"
	"strings"

	"repro/internal/asm"
	"repro/internal/compile"
	"repro/internal/corpus"
	"repro/internal/minic"
	"repro/internal/rocauc"
)

// Fig6Result is the all-vs-all experiment of Figure 6: a GES matrix over
// procedures drawn from several packages, each in multiple compilations.
type Fig6Result struct {
	Labels  []string    // row/column labels (query = row, target = column)
	Sources []string    // source symbol per index (ground-truth grouping)
	Matrix  [][]float64 // GES[i][j] = GES(query i | target j)
	AvgROC  float64
	AvgCROC float64
}

// fig6Queries selects the paper's named procedures with their
// compilation counts: ftp_syst from wget-1.8 in 6 compilations,
// ff_rv34_decode_init_thread_copy from ffmpeg-2.4.6 in 7, and Coreutils
// procedures in 3 each — 40 in total at Full scale.
func fig6Queries(cfg Config) []struct {
	pkg, fn string
	count   int
} {
	all := []struct {
		pkg, fn string
		count   int
	}{
		{"wget-1.8/ftp", "ftp_syst", 6},
		{"ffmpeg-2.4.6/rv34", "ff_rv34_decode_init_thread_copy", 7},
		{"coreutils-8.23/parse", "parse_integer", 3},
		{"coreutils-8.23/stat", "dev_ino_compare", 3},
		{"coreutils-8.23/stat", "default_format", 3},
		{"coreutils-8.23/stat", "print_stat", 3},
		{"coreutils-8.23/stat", "cached_umask", 3},
		{"coreutils-8.23/ln", "create_hard_link", 3},
		{"coreutils-8.23/od", "i_write", 3},
		{"coreutils-8.23/sort", "compare_nodes", 3},
		{"coreutils-8.23/cksum", "crc_update", 3},
	}
	if cfg.Scale == Small {
		// Trim compilation counts to the scale's toolchains (3).
		for i := range all {
			if all[i].count > 3 {
				all[i].count = 3
			}
		}
		all = all[:6]
	}
	return all
}

// Fig6 runs the all-vs-all experiment.
func Fig6(cfg Config) (*Fig6Result, error) {
	decoyByName := map[string]string{}
	for _, d := range corpus.Decoys() {
		decoyByName[d.Name] = d.Src
	}
	tcs := compile.Toolchains()

	var procs []*asm.Proc
	for _, q := range fig6Queries(cfg) {
		src, ok := decoyByName[q.pkg]
		if !ok {
			return nil, fmt.Errorf("fig6: unknown package %s", q.pkg)
		}
		prog, err := minic.Parse(src)
		if err != nil {
			return nil, err
		}
		for i := 0; i < q.count && i < len(tcs); i++ {
			p, err := compile.Compile(prog, q.fn, tcs[i], compile.O2())
			if err != nil {
				return nil, err
			}
			p.Source = asm.Provenance{Package: q.pkg, SourceSym: q.fn, Toolchain: tcs[i].Name()}
			p.Name = q.fn + "@" + tcs[i].Name()
			procs = append(procs, p)
		}
	}

	db, err := cfg.NewDB(procs)
	if err != nil {
		return nil, err
	}

	res := &Fig6Result{}
	for _, p := range procs {
		res.Labels = append(res.Labels, p.Name)
		res.Sources = append(res.Sources, p.Source.SourceSym)
	}
	res.Matrix = make([][]float64, len(procs))

	sumROC, sumCROC := 0.0, 0.0
	for i, p := range procs {
		rep, err := db.Query(p)
		if err != nil {
			return nil, err
		}
		// Results come sorted; re-index by target order.
		ges := map[string]float64{}
		for _, ts := range rep.Results {
			ges[ts.Target.Name] = ts.GES
		}
		res.Matrix[i] = make([]float64, len(procs))
		var samples []rocauc.Sample
		for j, t := range procs {
			res.Matrix[i][j] = ges[t.Name]
			if j == i {
				continue // the query itself is excluded from scoring
			}
			samples = append(samples, rocauc.Sample{
				Score:    ges[t.Name],
				Positive: t.Source.SourceSym == p.Source.SourceSym,
			})
		}
		sumROC += rocauc.ROC(samples)
		sumCROC += rocauc.CROC(samples, rocauc.DefaultAlpha)
	}
	res.AvgROC = sumROC / float64(len(procs))
	res.AvgCROC = sumCROC / float64(len(procs))
	return res, nil
}

// String renders an ASCII heat map (GES normalized per row).
func (r *Fig6Result) String() string {
	shades := []byte(" .:-=+*#%@")
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — all-vs-all GES heat map (%d×%d), avg ROC=%.3f CROC=%.3f\n",
		len(r.Labels), len(r.Labels), r.AvgROC, r.AvgCROC)
	for i, row := range r.Matrix {
		lo, hi := row[0], row[0]
		for _, v := range row {
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		span := hi - lo
		if span == 0 {
			span = 1
		}
		for _, v := range row {
			idx := int((v - lo) / span * float64(len(shades)-1))
			b.WriteByte(shades[idx])
		}
		fmt.Fprintf(&b, "  %s\n", r.Labels[i])
	}
	return b.String()
}

// CSV renders the matrix with labels for external plotting.
func (r *Fig6Result) CSV() string {
	var b strings.Builder
	b.WriteString("query\\target")
	for _, l := range r.Labels {
		b.WriteString("," + l)
	}
	b.WriteByte('\n')
	for i, row := range r.Matrix {
		b.WriteString(r.Labels[i])
		for _, v := range row {
			fmt.Fprintf(&b, ",%.4f", v)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
