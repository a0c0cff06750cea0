// Command pmexp runs the paper-reproduction experiments and prints
// paper-vs-measured tables (see EXPERIMENTS.md for the archived full-scale
// results).
//
// Usage:
//
//	pmexp                      # E1–E14 at quick scale
//	pmexp -full -md            # full statistical scale, Markdown tables
//	pmexp -ext                 # also the X1–X6 extension experiments
//	pmexp -only E5,E9          # a subset
//	pmexp -list                # list all experiments
//	pmexp -bufpolicy dt:alpha=2  # X5 buffer-policy matrix, one policy
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"
	"time"

	"pipemem"
	"pipemem/internal/cli"
)

func main() {
	full := flag.Bool("full", false, "run at full scale (slow, the EXPERIMENTS.md numbers)")
	md := flag.Bool("md", false, "emit Markdown instead of text tables")
	only := flag.String("only", "", "comma-separated experiment ids to run (default: all)")
	ext := flag.Bool("ext", false, "also run the X1–X6 extension experiments (beyond the paper)")
	list := flag.Bool("list", false, "list experiments and exit")
	pprofA := flag.String("pprof", "", "serve runtime metrics and /debug/pprof on this address while running")
	bufpol := cli.BufPolicyFlag(nil)
	flag.Parse()

	// Full-scale experiment batches run for minutes; the debug server lets
	// a profiler attach and a scraper watch heap/GC gauges mid-run.
	if *pprofA != "" {
		addr, stop, err := pipemem.ServeDebug(*pprofA, pipemem.NewMetricsRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "pmexp: debug server on http://%s\n", addr)
		defer stop()
	}

	scale := pipemem.Quick
	if *full {
		scale = pipemem.Full
	}
	want := map[string]bool{}
	for _, id := range strings.Split(*only, ",") {
		if id = strings.TrimSpace(id); id != "" {
			want[strings.ToUpper(id)] = true
		}
	}

	// The default run is the paper's claims; -ext, -only and -list also
	// reach the X experiments beyond it.
	exps := pipemem.Experiments()
	if !*ext && len(want) == 0 && !*list {
		exps = slices.DeleteFunc(exps, func(e pipemem.Experiment) bool { return !strings.HasPrefix(e.ID, "E") })
	}
	// -bufpolicy restricts the run to the buffer-management experiment,
	// measuring just that policy across the X5 traffic matrix.
	if bufpol.Got() {
		exps = []pipemem.Experiment{pipemem.BufferPolicyExperiment(bufpol.Spec())}
	}
	if *list {
		for _, e := range exps {
			fmt.Printf("%-4s %-14s %s\n", e.ID, e.Ref, e.Title)
		}
		return
	}
	// An -only id that matches nothing would silently run zero experiments
	// and exit 0 — reject it instead.
	if len(want) > 0 {
		known := map[string]bool{}
		for _, e := range exps {
			known[e.ID] = true
		}
		for id := range want {
			if !known[id] {
				fmt.Fprintf(os.Stderr, "pmexp: unknown experiment id %q (pmexp -list shows the ids)\n", id)
				os.Exit(2)
			}
		}
	}
	failed := 0
	for _, e := range exps {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		res, err := e.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: error: %v\n", e.ID, err)
			failed++
			continue
		}
		if *md {
			fmt.Print(res.Markdown())
		} else {
			fmt.Print(res)
			fmt.Printf("  (%.1fs)\n\n", time.Since(start).Seconds())
		}
		if !res.Pass() {
			failed++
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "%d experiment(s) with mismatches\n", failed)
		os.Exit(1)
	}
}
