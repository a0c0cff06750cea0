// Command pmrtl runs a cycle-accurate shared-buffer switch — the pipelined
// memory, or with -org one of the three organizations the paper compares
// it with — and reports utilization, loss and latency; with -trace it
// dumps the per-cycle fig. 5-style control/datapath trace.
//
// Usage:
//
//	pmrtl -n 8 -cells 256 -load 1.0 -perm -cycles 100000
//	pmrtl -n 2 -cells 8 -load 0.6 -cycles 40 -trace    # fig. 5 view
//	pmrtl -org dual -n 8 -perm                         # §3.5 half quantum; also wide, prizma
//	pmrtl -model t3                                    # Telegraphos III
//	pmrtl -bufpolicy dt:alpha=2 -load 0.9              # dynamic-threshold admission
//
// Observability (pipelined organization only): -metrics prints a
// Prometheus-style snapshot after the result, -tracejson FILE writes the
// fig. 5 per-cycle records and the typed wave/stall events as one JSONL
// stream, -trace-sample N keeps 1 in N typed events, and -pprof ADDR
// serves /metrics plus /debug/pprof while running:
//
//	pmrtl -n 8 -load 0.9 -metrics -tracejson trace.jsonl
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"

	"pipemem"
	"pipemem/internal/cli"
)

// notImplemented lists, per organization, the flags it would have to
// ignore: they are refused instead. (-vcs reaches the dual switch's
// constructor, which refuses it with its own reason.)
var (
	pipelinedOnly  = []string{"trace", "vcd", "bufpolicy", "metrics", "metrics-json", "tracejson", "trace-sample", "pprof"}
	notImplemented = map[string][]string{
		"dual":   pipelinedOnly,
		"wide":   append([]string{"vcs"}, pipelinedOnly...),
		"prizma": append([]string{"vcs", "store-and-forward"}, pipelinedOnly...),
	}
)

func main() {
	var (
		n       = flag.Int("n", 8, "ports (n×n)")
		cells   = flag.Int("cells", 256, "buffer capacity in cells")
		words   = flag.Int("w", 16, "word width in bits")
		load    = flag.Float64("load", 0.8, "offered load in (0,1]")
		perm    = flag.Bool("perm", false, "admissible rotating-permutation traffic")
		sat     = flag.Bool("saturate", false, "uniform saturation traffic")
		nocut   = flag.Bool("store-and-forward", false, "disable automatic cut-through")
		orgName = flag.String("org", "pipelined", "buffer organization: pipelined|dual (§3.5 half quantum)|wide|prizma")
		cycles  = flag.Int64("cycles", 200_000, "cycles to simulate")
		seed    = flag.Uint64("seed", 1, "PRNG seed")
		trace   = flag.Bool("trace", false, "dump the per-cycle control trace (fig. 5)")
		vcd     = flag.String("vcd", "", "write the trace as a VCD waveform to this file (GTKWave etc.)")
		vcs     = flag.Int("vcs", 1, "virtual channels per output link ([KVES95])")
		model   = flag.String("model", "", "Telegraphos prototype instead of -n/-w/-cells: t1|t2|t3")

		metrics     = flag.Bool("metrics", false, "print a Prometheus-style metrics snapshot after the run")
		metricsJSON = flag.Bool("metrics-json", false, "with -metrics: JSON snapshot instead of text exposition")
		traceJSON   = flag.String("tracejson", "", "write fig. 5 records and typed events as JSONL to this file")
		traceSample = flag.Int("trace-sample", 1, "keep 1 in N typed trace events")
		pprofAddr   = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address while running")
	)
	bufpol := cli.BufPolicyFlag(nil)
	flag.Parse()

	cfg := pipemem.Config{Ports: *n, WordBits: *words, Cells: *cells, CutThrough: !*nocut, VCs: *vcs}
	var clockNs float64
	switch *model {
	case "":
	case "t1":
		m := pipemem.TelegraphosI()
		cfg, clockNs = m.SwitchConfig(), m.ClockNs
	case "t2":
		m := pipemem.TelegraphosII()
		cfg, clockNs = m.SwitchConfig(), m.ClockNs
	case "t3":
		m := pipemem.TelegraphosIII()
		cfg, clockNs = m.SwitchConfig(), m.ClockNs
	default:
		fmt.Fprintf(os.Stderr, "pmrtl: unknown model %q\n", *model)
		os.Exit(2)
	}
	cfg.CutThrough = !*nocut
	cfg.VCs = *vcs

	tcfg := pipemem.TrafficConfig{Kind: pipemem.Bernoulli, N: cfg.Ports, Load: *load, Seed: *seed}
	if *perm {
		tcfg.Kind, tcfg.Load = pipemem.Permutation, 1
	} else if *sat {
		tcfg.Kind = pipemem.Saturation
	}

	var (
		org pipemem.Organization
		sw  *pipemem.Switch // the pipelined organization, else nil
		err error
	)
	switch *orgName {
	case "pipelined":
		sw, err = pipemem.New(cfg)
		org = sw
	case "dual":
		org, err = pipemem.NewDual(cfg)
	case "wide":
		org, err = pipemem.NewWide(pipemem.WideConfig{
			Ports: cfg.Ports, WordBits: cfg.WordBits, Cells: cfg.Cells,
			CutThroughCrossbar: cfg.CutThrough,
		})
	case "prizma":
		org, err = pipemem.NewPrizma(pipemem.PrizmaConfig{
			Ports: cfg.Ports, Banks: cfg.Cells, WordBits: cfg.WordBits,
		})
	default:
		fmt.Fprintf(os.Stderr, "pmrtl: unknown organization %q\n", *orgName)
		os.Exit(2)
	}
	flag.Visit(func(f *flag.Flag) {
		if slices.Contains(notImplemented[*orgName], f.Name) {
			fmt.Fprintf(os.Stderr, "pmrtl: the %s organization does not implement -%s; drop it\n", *orgName, f.Name)
			os.Exit(2)
		}
	})
	if err != nil {
		fatal(err)
	}

	// Policy, observer and tracers hang off flags only the pipelined
	// organization implements (notImplemented), so sw is non-nil wherever
	// the set-up below touches it.
	if bufpol.Got() {
		sw.SetBufferPolicy(bufpol.Policy())
	}
	var (
		reg    *pipemem.MetricsRegistry
		sink   *pipemem.JSONLSink
		tracer *pipemem.EventTracer
	)
	if *metrics || *metricsJSON || *traceJSON != "" || *pprofAddr != "" {
		reg = pipemem.NewMetricsRegistry()
		obsv := pipemem.NewObserver(reg, cfg.Ports)
		var ts pipemem.TraceSink
		if *traceJSON != "" {
			f, err := os.Create(*traceJSON)
			if err != nil {
				fatal(err)
			}
			sink = pipemem.NewJSONLSink(f)
			ts = sink
		}
		tracer = pipemem.NewEventTracer(ts, 0, *traceSample)
		tracer.Register(reg)
		obsv.Tracer = tracer
		sw.SetObserver(obsv)
		if *pprofAddr != "" {
			addr, stop, err := pipemem.ServeDebug(*pprofAddr, reg)
			if err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "pmrtl: debug server on http://%s\n", addr)
			defer stop()
		}
	}
	var vcdDone func() error
	switch {
	case *vcd != "":
		f, err := os.Create(*vcd)
		if err != nil {
			fatal(err)
		}
		clock := clockNs
		if clock == 0 {
			clock = 1
		}
		vw := pipemem.NewVCDWriter(f, sw, clock)
		sw.SetTracer(vw.Trace)
		vcdDone = func() error {
			if err := vw.Err(); err != nil {
				return err
			}
			return f.Close()
		}
	case sink != nil:
		// Route the fig. 5 per-cycle records onto the same JSONL stream
		// as the typed events.
		sw.SetTracer(pipemem.JSONTracer(sink))
	case *trace:
		sw.SetTracer(func(e pipemem.TraceEvent) { fmt.Println(e) })
	}

	cs, err := pipemem.NewCellStream(tcfg, org.Geometry().CellWords)
	if err != nil {
		fatal(err)
	}
	res, err := pipemem.Run(org, cs, *cycles)
	if err != nil {
		fatal(err)
	}
	if vcdDone != nil {
		if err := vcdDone(); err != nil {
			fatal(err)
		}
		fmt.Printf("VCD waveform written to %s\n", *vcd)
	}
	if sw == nil {
		fmt.Printf("%s: ", *orgName)
	}
	fmt.Println(res)
	if clockNs > 0 {
		fmt.Printf("at %.1f ns/cycle: %.0f Mb/s per link sustained (util %.3f × %d b / %.1f ns)\n",
			clockNs, res.Utilization*float64(cfg.WordBits)/clockNs*1000, res.Utilization, cfg.WordBits, clockNs)
	}
	if tracer != nil {
		if err := tracer.Close(); err != nil {
			fatal(err)
		}
		if sink != nil {
			fmt.Fprintf(os.Stderr, "pmrtl: %d JSONL records written to %s\n", sink.Lines(), *traceJSON)
		}
	}
	if *metrics || *metricsJSON {
		if *metricsJSON {
			_ = reg.WriteJSON(os.Stdout)
		} else {
			_ = reg.WritePrometheus(os.Stdout)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmrtl:", err)
	os.Exit(1)
}
