// Command benchmark is the repo's performance ledger: six named
// workloads measured from outside the simulator, by timing calls into
// the public functions of each layer. README.md is the glossary.
//
// The driver's form runs one pass of one workload and ends with the
// contract's result line:
//
//	go run ./benchmark --workload sw8-sat --seed 42 --seconds 5 --trace 0
//
// Without --workload it runs all six, untraced then traced, prints the
// metric × workload table and writes benchmark/out/ledger.json.
// -compare and -selfcheck read such files back (see compare.go).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"pipemem/internal/core"
	"pipemem/internal/fabric"
	"pipemem/internal/traffic"
)

// workload is one named set of inputs.
type workload struct {
	name      string
	run       func(opts) (*result, error) // untraced pass: end-to-end metrics
	runTraced func(opts) (*result, error) // traced pass: per-layer metrics
}

var sw8 = core.Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}

// workloads are the benchmark's inputs; BENCHMARK.json says why each was
// chosen. The winCycles are calibrated, not tuned: they only set the
// window length, and the same value runs on every commit.
var workloads = func() []workload {
	sw := []swWorkload{
		{
			name: "sw8-sat", cfg: sw8,
			traffic:   traffic.Config{Kind: traffic.Saturation, N: 8},
			winCycles: 4096, warm: 16_384, settle: 96,
		},
		{
			name: "sw8-sparse", cfg: sw8,
			traffic:   traffic.Config{Kind: traffic.Bursty, N: 8, Load: 0.05, BurstLen: 8},
			winCycles: 6144, warm: 16_384, settle: 16,
		},
		{
			name:      "sw8-ecc-dt",
			cfg:       core.Config{Ports: 8, WordBits: 16, Cells: 64, ECC: true},
			traffic:   traffic.Config{Kind: traffic.Hotspot, N: 8, Load: 0.9, HotFrac: 0.5, HotPort: 0},
			policy:    "dt:alpha=2",
			winCycles: 512, warm: 2048, settle: 96,
		},
	}
	fab := fabricWorkload{
		name: "fabric64-sat",
		cfg: fabric.Config{
			Terminals: 64, Radix: 8, WordBits: 16, SwitchCells: 32,
			Credits: 4, CutThrough: true, Workers: 1,
		},
		traffic:   traffic.Config{Kind: traffic.Saturation},
		winCycles: 128, warm: 512, settle: 64,
	}
	serve := []serveWorkload{
		{name: "serve-steady-4k", batch: 4096, reqPerWin: 1, warmReq: 4, settle: 64},
		{name: "serve-steady-64", batch: 64, reqPerWin: 8, warmReq: 32, settle: 64, scrapeEvery: 512, ckptEvery: 4096},
	}
	var all []workload
	for _, w := range sw {
		all = append(all, workload{w.name, w.run, w.runTraced})
	}
	all = append(all, workload{fab.name, fab.run, fab.runTraced})
	for _, w := range serve {
		all = append(all, workload{w.name, w.run, w.runTraced})
	}
	return all
}()

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// runOne makes one pass of a workload and completes its result.
func runOne(w *workload, o opts, traced bool) (*result, error) {
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	start := time.Now()
	run, defs := w.run, endToEnd
	if traced {
		run, defs = w.runTraced, perLayer
	}
	r, err := run(o)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.fill(defs)
	r.WallS = time.Since(start).Seconds()
	for name, v := range r.Metrics {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			r.fail("metric %s is not finite", name)
			r.Metrics[name] = value{Unit: v.Unit}
		}
	}
	return r, nil
}

// ledger is the result file: every run of one invocation, stamped.
type ledger struct {
	Host hostStamp `json:"host"`
	// Claim is what the change under test says it gains; the change that
	// defines the benchmark claims nothing.
	Claim *string   `json:"claim"`
	Runs  []*result `json:"runs"`
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// printResult prints every metric of a result by name, with its unit.
func printResult(w io.Writer, r *result, defs []metricDef) {
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		switch {
		case !ok:
		case r.isNA(d.Name):
			fmt.Fprintf(w, "  %-36s %16s %s\n", d.Name, "n/a", d.Unit)
		default:
			fmt.Fprintf(w, "  %-36s %16.6g %s", d.Name, v.Value, d.Unit)
			if n, ok := r.Samples[d.Name]; ok {
				fmt.Fprintf(w, "  (n=%d)", n)
			}
			fmt.Fprintln(w)
		}
	}
	for _, g := range r.Rungs {
		fmt.Fprintf(w, "  rung.%-31s %16.6g ns/cycle %14.6g cells/s\n", g.Name, g.NSPerCycle, g.CellsPerSec)
	}
	fmt.Fprintf(w, "  ops attempted %d, failed %d, correct %v, wall %.1fs\n", r.Attempted, r.Failed, r.Correct, r.WallS)
	for _, f := range r.Failures {
		fmt.Fprintf(w, "  FAILED: %s\n", f)
	}
}

// printTable prints the metric × workload matrix of a full run.
func printTable(w io.Writer, runs []*result) {
	fmt.Fprintf(w, "\n%-36s", "metric [unit]")
	for _, r := range runs {
		fmt.Fprintf(w, " %15s", r.Workload)
	}
	fmt.Fprintln(w)
	for _, defs := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range defs {
			fmt.Fprintf(w, "%-36s", d.Name+" ["+d.Unit+"]")
			for _, r := range runs {
				if v, ok := r.Metrics[d.Name]; ok && !r.isNA(d.Name) {
					fmt.Fprintf(w, " %15.6g", v.Value)
				} else {
					fmt.Fprintf(w, " %15s", "n/a")
				}
			}
			fmt.Fprintln(w)
		}
	}
}

// runAll runs every workload, untraced then traced, and returns the
// merged results.
func runAll(o opts, progress io.Writer) ([]*result, error) {
	var runs []*result
	for i := range workloads {
		w := &workloads[i]
		r, err := runOne(w, o, false)
		if err != nil {
			return nil, err
		}
		t, err := runOne(w, o, true)
		if err != nil {
			return nil, err
		}
		r.merge(t)
		fmt.Fprintf(progress, "%-16s %12.6g cells/s  correct=%v  %.1fs\n",
			w.name, r.Metrics["cells_per_sec"].Value, r.Correct, r.WallS)
		runs = append(runs, r)
	}
	return runs, nil
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name      = fs.String("workload", "", "run one pass of this workload and end with the result line (default: all six, both passes)")
		seed      = fs.Uint64("seed", 42, "workload seed; traffic seeds derive from it")
		seconds   = fs.Int("seconds", 0, "nominal length of a timed pass; it fixes the work, not the time (default: run_seconds of the spec)")
		trace     = fs.Int("trace", 0, "with -workload: 0 = untraced pass and end-to-end metrics, 1 = traced pass and per-layer metrics")
		specPath  = fs.String("spec", "BENCHMARK.json", "the benchmark's spec file")
		outDir    = fs.String("out", filepath.Join("benchmark", "out"), "directory for result and span files")
		compare   = fs.Bool("compare", false, "compare result files given as OLD NEW [OLD NEW...] pairs")
		selfcheck = fs.Bool("selfcheck", false, "run the whole set twice and fail if an end-to-end metric differs by more than its bound")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	spec, err := loadSpec(*specPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	if *compare {
		return compareFiles(spec, fs.Args(), stdout, stderr)
	}
	if *seconds == 0 {
		*seconds = spec.RunSeconds
	}
	if *seconds < 1 || *seconds > 60 || fs.NArg() > 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: -seconds is 1..60, -trace is 0 or 1, and there are no positional arguments")
		return 2
	}
	// The benchmark is one process on two processors whatever the host has.
	runtime.GOMAXPROCS(2)
	o := opts{seed: *seed, seconds: *seconds, scale: 1, setups: 16, outDir: *outDir}

	if *selfcheck {
		return selfCheck(spec, *specPath, o, stdout, stderr)
	}
	if *name != "" {
		w := findWorkload(*name)
		if w == nil {
			fmt.Fprintf(stderr, "benchmark: no workload %q\n", *name)
			return 2
		}
		r, err := runOne(w, o, *trace == 1)
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		defs := endToEnd
		if r.Traced {
			defs = perLayer
		}
		fmt.Fprintf(stdout, "%s seed=%d seconds=%d traced=%v\n", r.Workload, r.Seed, r.Seconds, r.Traced)
		printResult(stdout, r, defs)
		file := filepath.Join(o.outDir, fmt.Sprintf("%s.trace%d.json", r.Workload, *trace))
		if err := writeJSON(file, ledger{Host: stampHost(), Runs: []*result{r}}); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		fmt.Fprintln(stdout, r.contractLine())
		return 0
	}

	runs, err := runAll(o, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	printTable(stdout, runs)
	file := filepath.Join(o.outDir, "ledger.json")
	if err := writeJSON(file, ledger{Host: stampHost(), Runs: runs}); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	fmt.Fprintf(stdout, "\nwrote %s and one span file per workload\n", file)
	code := 0
	for _, r := range runs {
		for _, f := range r.Failures {
			fmt.Fprintf(stdout, "FAILED %s: %s\n", r.Workload, f)
			code = 1
		}
	}
	return code
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
