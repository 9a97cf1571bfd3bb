// Command experiments regenerates every figure and quantitative claim
// of the paper (the index is the internal/exp registry). With no flags
// it runs everything; -run selects experiments, -list shows the index.
//
//	experiments -list
//	experiments -run FIG1,FIG3
//	experiments            # run all; exit 1 on any claim violation
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"storagesched/internal/exp"
)

func main() {
	list := flag.Bool("list", false, "list the experiment index and exit")
	run := flag.String("run", "", "comma-separated experiment IDs (default: all)")
	workers := flag.Int("workers", 0, "worker count for engine-backed sweeps (0 = one per CPU)")
	pending := flag.Int("pending", 0, "max in-flight instances for batch sweeps (0 = twice the workers)")
	flag.Parse()

	exp.SetSweepWorkers(*workers)
	exp.SetSweepPending(*pending)

	if *list {
		for _, e := range exp.Registry() {
			fmt.Printf("%-8s %s\n         paper: %s\n", e.ID, e.Title, e.Paper)
		}
		return
	}

	if *run == "" {
		if err := exp.RunAll(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		return
	}

	failed := false
	for _, id := range strings.Split(*run, ",") {
		id = strings.TrimSpace(id)
		e, ok := exp.ByID(id)
		if !ok {
			fmt.Fprintf(os.Stderr, "experiments: unknown experiment %q (use -list)\n", id)
			os.Exit(2)
		}
		fmt.Printf("==== %s — %s ====\npaper: %s\n\n", e.ID, e.Title, e.Paper)
		if err := e.Run(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %s: %v\n", e.ID, err)
			failed = true
		} else {
			fmt.Println("claim check: OK")
		}
		fmt.Println()
	}
	if failed {
		os.Exit(1)
	}
}
