// Command hrmc-figures regenerates the tables and figures of the paper's
// evaluation (Section 5). Each figure is printed as text tables: one row
// per kernel-buffer size, one column per series, matching the paper's
// plots.
//
// Usage:
//
//	hrmc-figures -experiment fig10          # one figure
//	hrmc-figures -experiment all -seeds 5   # everything, 5-run averages
//	hrmc-figures -list                      # what is available
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/experiments"
)

func main() {
	var (
		name   = flag.String("experiment", "all", "experiment to regenerate (fig3 … fig16 or ext-*, as -list names them), or all")
		seeds  = flag.Int("seeds", 3, "seeded runs averaged per data point (the paper averages 5)")
		quick  = flag.Bool("quick", false, "shrink file sizes and sweeps for a fast smoke run")
		list   = flag.Bool("list", false, "list available experiments and exit")
		format = flag.String("format", "text", "output format: text or csv")
	)
	flag.Parse()

	if *list {
		width := 0
		for _, r := range experiments.Registry() {
			width = max(width, len(r.Name))
		}
		for _, r := range experiments.Registry() {
			fmt.Printf("%-*s  %s\n", width, r.Name, r.Desc)
		}
		return
	}

	opt := experiments.Options{Seeds: *seeds, Quick: *quick}
	runners := experiments.Registry()
	if *name != "all" {
		r, ok := experiments.Find(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "hrmc-figures: unknown experiment %q (try -list)\n", *name)
			os.Exit(2)
		}
		runners = []experiments.Runner{r}
	}

	csv := *format == "csv"
	if !csv && *format != "text" {
		fmt.Fprintf(os.Stderr, "hrmc-figures: unknown format %q\n", *format)
		os.Exit(2)
	}
	for _, r := range runners {
		if !csv {
			fmt.Printf("=== %s: %s\n", r.Name, r.Desc)
		}
		start := time.Now()
		for _, tb := range r.Run(opt) {
			if csv {
				fmt.Println(tb.FormatCSV())
			} else {
				fmt.Println(tb.Format())
			}
		}
		if !csv {
			fmt.Printf("    (%s in %v)\n\n", r.Name, time.Since(start).Round(time.Millisecond))
		}
	}
}
