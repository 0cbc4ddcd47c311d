// Command esheval runs the paper-reproduction experiments and prints
// every table and figure.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	exp := flag.String("exp", "table1", "experiment: table1, table2, table3, fig5, fig6, census, crossopt, ablation, accuracy, work, all")
	scale := flag.String("scale", "full", "corpus scale: small, medium, full")
	csv := flag.Bool("csv", false, "emit fig6 matrix as CSV")
	flag.Parse()

	cfg := experiments.Config{}
	switch *scale {
	case "small":
		cfg.Scale = experiments.Small
	case "medium":
		cfg.Scale = experiments.Medium
	case "full":
		cfg.Scale = experiments.Full
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(2)
	}

	run := func(name string) error {
		start := time.Now()
		var err error
		switch name {
		case "table1":
			var r *experiments.Table1Result
			if r, err = experiments.Table1(cfg); err == nil {
				fmt.Println(r)
			}
		case "table2":
			var r *experiments.Table2Result
			if r, err = experiments.Table2(cfg); err == nil {
				fmt.Println(r)
			}
		case "table3":
			var r *experiments.Table3Result
			if r, err = experiments.Table3(cfg); err == nil {
				fmt.Println(r)
			}
		case "fig5":
			var r *experiments.Fig5Result
			if r, err = experiments.Fig5(cfg); err == nil {
				fmt.Println(r)
			}
		case "fig6":
			var r *experiments.Fig6Result
			if r, err = experiments.Fig6(cfg); err == nil {
				if *csv {
					fmt.Println(r.CSV())
				} else {
					fmt.Println(r)
				}
			}
		case "census":
			var r *experiments.CensusResult
			if r, err = experiments.Census(cfg, 5); err == nil {
				fmt.Println(r)
			}
		case "ablation":
			var r *experiments.AblationResult
			if r, err = experiments.Ablation(cfg); err == nil {
				fmt.Println(r)
			}
		case "accuracy":
			var r *experiments.AccuracyResult
			if r, err = experiments.Accuracy(cfg); err == nil {
				fmt.Println(r)
			}
		case "work":
			var r *experiments.WorkResult
			if r, err = experiments.Work(cfg); err == nil {
				fmt.Println(r)
			}
		case "crossopt":
			var r *experiments.CrossOptResult
			if r, err = experiments.CrossOpt(cfg); err == nil {
				fmt.Println(r)
			}
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
		if err != nil {
			return err
		}
		fmt.Printf("[%s done in %s at scale %s]\n\n", name, time.Since(start).Round(time.Millisecond), cfg.Scale)
		return nil
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "fig5", "fig6", "census", "crossopt", "ablation"}
	}
	for _, n := range names {
		if err := run(n); err != nil {
			fmt.Fprintln(os.Stderr, "esheval:", err)
			os.Exit(1)
		}
	}
}
