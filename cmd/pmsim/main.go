// Command pmsim runs slot-level simulations of the §2 switch-buffering
// architectures and prints throughput / loss / latency summaries.
//
// Usage:
//
//	pmsim -arch shared -n 16 -load 0.8 -buf 86 -slots 1000000
//	pmsim -arch input-fifo -n 16 -saturate
//	pmsim -arch voq -sched islip -n 16 -load 0.9
//	pmsim -sweep -arch output -n 16 -buf 12        # load sweep 0.1..0.95
//	pmsim -sweep -arch rtl -n 8 -buf 256           # the same sweep on the RTL model, one worker per load
//
// Architectures: input-fifo, voq, output, shared, crosspoint,
// block-crosspoint, smoothing, speedup.
//
// With -faultplan, pmsim instead drives the cycle-accurate pipelined
// memory switch under traffic while a fault schedule unfolds, and reports
// corruption, ECC activity, bypasses and link retransmissions:
//
//	pmsim -faultplan plan.txt -n 4 -buf 32 -load 0.6 -slots 100000 -ecc
//	pmsim -faultplan random -n 4 -buf 32 -ecc -bypass 3
//	pmsim -faultplan - < plan.txt -n 4 -linkprotect
//
// The plan format is one event per line: "@<cycle> <kind> key=val…"
// (kinds: mem, stuck, ctrl, inreg, linkdrop, linkcorrupt); "random"
// generates a seeded random plan, "-" reads standard input. This harness
// offers Bernoulli traffic at -load and refuses -bursty, -hot and
// -saturate (exit 2). The same plan with -checkpoint, -audit or -watchdog
// runs through the session layer instead, which honours the traffic flags
// and draws its arrivals from a different stream: the two paths' offered
// counts differ for the same -seed, and neither reproduces the other.
//
// With -metrics and/or -trace, pmsim instead drives the cycle-accurate
// pipelined memory switch with the observability layer attached: -metrics
// prints a Prometheus-style snapshot of the run's metrics (wave
// initiations, cut-throughs, stalls, queue depths, buffer high-water
// mark, drops, latency histograms) after the result line, and -trace
// writes the structured JSONL event stream:
//
//	pmsim -metrics -trace out.jsonl -n 8 -buf 256 -load 0.9 -slots 100000
//	pmsim -metrics -metrics-json                # JSON snapshot instead
//	pmsim -faultplan random -ecc -metrics       # observe a fault run
//
// -pprof ADDR serves /metrics, /metrics.json and /debug/pprof/ (with
// periodic runtime heap/GC/goroutine gauges) on ADDR while running.
//
// With -checkpoint, -restore, -audit or -watchdog, the RTL run goes
// through a checkpointable session: -checkpoint FILE writes periodic
// crash-consistent snapshots of the complete simulation state (every
// -ckpt-every cycles, default cycles/10), -restore FILE resumes one —
// traffic, buffer policy and fault plan come from the checkpoint, and the
// resumed run finishes bit-identically to the uninterrupted one. -audit N
// verifies internal invariants (conservation, occupancy, §3.2
// hazard-freedom) every N cycles; -watchdog N aborts with a diagnostic
// checkpoint (FILE.stuck) if no cell moves for N cycles while some are
// resident:
//
//	pmsim -arch rtl -n 8 -buf 256 -slots 200000 -checkpoint run.ckpt
//	pmsim -restore run.ckpt
//	pmsim -faultplan plan.txt -ecc -checkpoint run.ckpt -audit 1000 -watchdog 5000
//
// -linkprotect runs are not checkpointable (CRC link state is not
// serialized).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pipemem"
	"pipemem/internal/bench"
	"pipemem/internal/cli"
)

func main() {
	var (
		arch     = flag.String("arch", "shared", "architecture: input-fifo|voq|output|shared|shared-capped|crosspoint|block-crosspoint|smoothing|speedup|rtl")
		n        = flag.Int("n", 16, "switch size (n×n)")
		load     = flag.Float64("load", 0.8, "offered load per input in (0,1]")
		saturate = flag.Bool("saturate", false, "saturation mode (backlogged inputs)")
		bursty   = flag.Float64("bursty", 0, "mean burst length in cells (0 = Bernoulli)")
		hotFrac  = flag.Float64("hot", 0, "hotspot fraction toward port 0 (0 = uniform)")
		buf      = flag.Int("buf", 64, "buffer parameter (total cells for shared; per-port otherwise)")
		outCap   = flag.Int("outcap", 16, "per-output occupancy cap for shared-capped")
		group    = flag.Int("group", 4, "block size for block-crosspoint")
		speedup  = flag.Int("speedup", 2, "internal speedup for the speedup fabric")
		sched    = flag.String("sched", "islip", "VOQ scheduler: islip|pim|2drr")
		slots    = flag.Int64("slots", 500_000, "measured slots")
		warmup   = flag.Int64("warmup", 0, "warm-up slots (default slots/10)")
		seed     = flag.Uint64("seed", 1, "PRNG seed")
		sweep    = flag.Bool("sweep", false, "sweep load 0.1..0.95 instead of a single point")

		fabricKind = flag.String("fabric", "", "multistage fabric run: butterfly|clos (overrides -arch; uses -terminals/-radix/-middles/-credits/-fabric-workers and the shared traffic flags)")
		terminals  = flag.Int("terminals", 64, "fabric run: external terminal count (butterfly; must be radix^s)")
		radix      = flag.Int("radix", 8, "fabric run: per-node port count (clos terminals = radix²)")
		middles    = flag.Int("middles", 0, "fabric run: populated Clos middle switches (0 = radix)")
		credits    = flag.Int("credits", 4, "fabric run: per-inter-stage-link credits (0 disables flow control)")
		fworkers   = flag.Int("fabric-workers", 1, "fabric run: engine shard workers (0 = GOMAXPROCS; results are bit-identical across counts)")

		faultplan = flag.String("faultplan", "", "fault-injection run: plan file, '-' for stdin, or 'random' (overrides -arch)")
		ecc       = flag.Bool("ecc", false, "fault run: SEC-DED protect the memory banks")
		bypass    = flag.Int("bypass", 0, "fault run: map out a bank after this many unrecovered ECC errors (0 = off; implies -ecc)")
		linkprot  = flag.Bool("linkprotect", false, "fault run: CRC/retransmit protocol on the input links")
		retries   = flag.Int("retries", 0, "fault run: link retransmission budget (0 = default)")
		events    = flag.Int("events", 200, "fault run: event count for -faultplan random")

		metrics     = flag.Bool("metrics", false, "observed RTL run: print a Prometheus-style metrics snapshot after the run")
		metricsJSON = flag.Bool("metrics-json", false, "with -metrics: print the JSON snapshot instead of the text exposition")
		pprofAddr   = flag.String("pprof", "", "serve /metrics and /debug/pprof on this address while running")
	)
	bufpol := cli.BufPolicyFlag(nil)
	ckptf := cli.CheckpointFlags(nil)
	tracef := cli.TraceFlags(nil)
	flag.Parse()
	if *warmup == 0 {
		*warmup = *slots / 10
	}
	if err := ckptf.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(2)
	}
	if err := tracef.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(2)
	}

	// trafficAt is the arrival process the shared traffic flags select, at
	// offered load p.
	trafficAt := func(p float64) pipemem.TrafficConfig {
		cfg := pipemem.TrafficConfig{Kind: pipemem.Bernoulli, N: *n, Load: p, Seed: *seed}
		switch {
		case *saturate:
			cfg.Kind = pipemem.Saturation
		case *bursty > 0:
			cfg.Kind, cfg.BurstLen = pipemem.Bursty, *bursty
		case *hotFrac > 0:
			cfg.Kind, cfg.HotFrac = pipemem.Hotspot, *hotFrac
		}
		return cfg
	}
	observe := *metrics || *metricsJSON || tracef.Out != "" || *pprofAddr != ""

	// -sweep is a plain load sweep of one architecture; the harnesses below
	// run a single point and would drop it.
	if *sweep && (*fabricKind != "" || *faultplan != "" || ckptf.Active() || observe) {
		fmt.Fprintln(os.Stderr, "pmsim: -sweep runs a plain load sweep; it does not combine with -fabric, -faultplan, -checkpoint/-restore/-audit/-watchdog, -metrics/-trace or -pprof")
		os.Exit(2)
	}

	// A -fabric run drives the multistage engine, which has its own
	// metrics surface; it composes with the traffic and -bufpolicy flags
	// but not with the single-switch fault/checkpoint/trace harnesses.
	if *fabricKind != "" {
		if *faultplan != "" || ckptf.Active() || *pprofAddr != "" {
			fmt.Fprintln(os.Stderr, "pmsim: -fabric does not combine with -faultplan, -checkpoint/-restore or -pprof")
			os.Exit(2)
		}
		// A flag the chosen network would ignore is refused, not dropped.
		ignored := map[string]string{"arch": "-fabric builds a multistage network, not -arch"}
		switch *fabricKind {
		case "butterfly":
			ignored["middles"] = "a butterfly has no middle stage to populate"
		case "clos":
			ignored["terminals"] = "a Clos network has radix² terminals"
		}
		flag.Visit(func(f *flag.Flag) {
			if why, ok := ignored[f.Name]; ok {
				fmt.Fprintf(os.Stderr, "pmsim: %s; drop -%s\n", why, f.Name)
				os.Exit(2)
			}
		})
		runFabric(fabricOpts{
			kind: *fabricKind, terminals: *terminals, radix: *radix,
			middles: *middles, cells: *buf, credits: *credits, workers: *fworkers,
			traffic: trafficAt(*load), cycles: *slots, warmup: *warmup, policy: bufpol.Spec(),
			metrics: *metrics, metricsJSON: *metricsJSON, trace: tracef,
		})
		return
	}
	if tracef.TelemetryOut != "" {
		fmt.Fprintln(os.Stderr, "pmsim: -telemetry samples the multistage engine; it needs -fabric butterfly|clos")
		os.Exit(2)
	}

	var ob *observed
	if observe {
		var err error
		if ob, err = newObserved(*n, tracef.Out, tracef.Sample, *pprofAddr); err != nil {
			fmt.Fprintln(os.Stderr, "pmsim:", err)
			os.Exit(1)
		}
		defer ob.finish(*metrics || *metricsJSON, *metricsJSON)
	}

	// The checkpoint/audit/watchdog group routes the run through the
	// session layer, which owns the same RTL + traffic (+ fault plan) loop
	// in a resumable form.
	if ckptf.Active() {
		// Sessions drive the RTL model; an explicit slot-level -arch would
		// be silently ignored, so refuse it instead.
		archSet := false
		flag.Visit(func(f *flag.Flag) { archSet = archSet || f.Name == "arch" })
		if archSet && *arch != "rtl" {
			fmt.Fprintf(os.Stderr, "pmsim: -checkpoint/-restore/-audit/-watchdog drive the RTL model, not -arch %s; use -arch rtl or drop -arch\n", *arch)
			os.Exit(2)
		}
		runSession(ckptf, sessOpts{
			n: *n, buf: *buf, cycles: *slots, seed: *seed, traffic: trafficAt(*load),
			faultplan: *faultplan, events: *events,
			ecc: *ecc || *bypass > 0, bypass: *bypass, linkprotect: *linkprot,
			polSpec: bufpol.Spec(), obs: ob,
		})
		return
	}

	if *faultplan != "" {
		// The fault harness draws its own Bernoulli arrivals at -load; a
		// traffic flag it would ignore is refused, not dropped.
		flag.Visit(func(f *flag.Flag) {
			if f.Name == "bursty" || f.Name == "hot" || f.Name == "saturate" {
				fmt.Fprintf(os.Stderr, "pmsim: the -faultplan harness offers Bernoulli traffic at -load and does not implement -%s; drop it, or add -audit/-watchdog/-checkpoint to run the plan through the session layer, which does\n", f.Name)
				os.Exit(2)
			}
		})
		runFaultPlan(*faultplan, faultOpts{
			n: *n, buf: *buf, load: *load, cycles: *slots, seed: *seed,
			ecc: *ecc || *bypass > 0, bypass: *bypass,
			linkprotect: *linkprot, retries: *retries, events: *events,
			obs: ob, policy: bufpol.Policy(),
		})
		return
	}

	// -metrics/-trace (or -arch rtl) select the cycle-accurate pipelined
	// switch (the observability layer lives in the RTL model, not the
	// slot-level §2 simulators).
	if observe || *arch == "rtl" {
		if *sweep {
			sweepRTL(*n, *buf, *slots, bufpol.Spec(), trafficAt)
			return
		}
		runObserved(ob, rtlOpts{n: *n, buf: *buf, cycles: *slots,
			traffic: trafficAt(*load), policy: bufpol.Policy()})
		return
	}
	// The §2 slot-level simulators have no shared-buffer admission hook;
	// refuse the flag rather than silently ignoring it.
	if bufpol.Got() {
		fmt.Fprintln(os.Stderr, "pmsim: -bufpolicy applies to the RTL model only (-arch rtl, -faultplan, -metrics or -trace)")
		os.Exit(2)
	}

	build := func() pipemem.Arch {
		switch *arch {
		case "input-fifo":
			return pipemem.NewInputFIFO(*n, *buf)
		case "voq":
			return pipemem.NewVOQ(*n, *buf, *sched)
		case "output":
			return pipemem.NewOutputQueue(*n, *buf)
		case "shared":
			return pipemem.NewSharedBufferArch(*n, *buf)
		case "shared-capped":
			return pipemem.NewCappedSharedBufferArch(*n, *buf, *outCap)
		case "crosspoint":
			return pipemem.NewCrosspoint(*n, *buf)
		case "block-crosspoint":
			return pipemem.NewBlockCrosspoint(*n, *group, *buf)
		case "smoothing":
			return pipemem.NewInputSmoothing(*n, *buf)
		case "speedup":
			return pipemem.NewSpeedupFabric(*n, *buf, *buf, *speedup)
		default:
			fmt.Fprintf(os.Stderr, "pmsim: unknown architecture %q\n", *arch)
			os.Exit(2)
			return nil
		}
	}

	run := func(p float64) {
		g, err := pipemem.NewGenerator(trafficAt(p))
		if err != nil {
			fmt.Fprintln(os.Stderr, "pmsim:", err)
			os.Exit(1)
		}
		res := pipemem.RunArch(build(), g, *warmup, *slots)
		fmt.Printf("load=%.2f  %s\n", p, res)
	}

	if *sweep {
		for _, p := range sweepLoads {
			run(p)
		}
		return
	}
	run(*load)
}

// sweepLoads are the offered loads of a -sweep run.
var sweepLoads = []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95}

// sweepRTL is -sweep on the cycle-accurate switch: the loads run in
// parallel on the sweep engine (each point owns its switch and seeded
// stream, so the rows equal ten single-point runs) and print in order.
func sweepRTL(n, buf int, cycles int64, policy string, trafficAt func(float64) pipemem.TrafficConfig) {
	pts := make([]bench.Point, len(sweepLoads))
	for i, p := range sweepLoads {
		pts[i] = bench.Point{
			Label:   fmt.Sprintf("load=%.2f", p),
			Config:  pipemem.Config{Ports: n, WordBits: 16, Cells: buf, CutThrough: true},
			Traffic: trafficAt(p),
			Cycles:  cycles,
			Policy:  policy,
		}
	}
	results, err := bench.Sweep(0, pts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	for _, r := range results {
		fmt.Printf("%s  %s\n", r.Point.Label, r.Run)
	}
}

// observed bundles the run's observability plumbing: the registry and
// observer, the optional JSONL trace sink, and the optional debug server.
type observed struct {
	reg      *pipemem.MetricsRegistry
	observer *pipemem.Observer
	sink     *pipemem.JSONLSink
	tracer   *pipemem.EventTracer
	stop     func()
}

// newObserved builds the registry/observer (sized for an n-port switch),
// opens the JSONL trace file when requested, and starts the debug server
// when pprofAddr is set.
func newObserved(n int, traceOut string, sample int, pprofAddr string) (*observed, error) {
	ob := &observed{reg: pipemem.NewMetricsRegistry()}
	ob.observer = pipemem.NewObserver(ob.reg, n)
	// A typed-nil *JSONLSink must not reach the TraceSink interface (the
	// tracer would call methods on it), so assign only when present.
	var sink pipemem.TraceSink
	if traceOut != "" {
		f, err := os.Create(traceOut)
		if err != nil {
			return nil, err
		}
		ob.sink = pipemem.NewJSONLSink(f)
		sink = ob.sink
	}
	ob.tracer = pipemem.NewEventTracer(sink, 0, sample)
	ob.tracer.Register(ob.reg)
	ob.observer.Tracer = ob.tracer
	if pprofAddr != "" {
		addr, stop, err := pipemem.ServeDebug(pprofAddr, ob.reg)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "pmsim: debug server on http://%s (metrics, metrics.json, debug/pprof)\n", addr)
		ob.stop = stop
	}
	return ob, nil
}

// finish flushes the trace sink, stops the debug server, and prints the
// metrics snapshot when asked.
func (ob *observed) finish(printMetrics, asJSON bool) {
	if err := ob.tracer.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "pmsim: trace:", err)
	}
	if ob.stop != nil {
		ob.stop()
	}
	if printMetrics {
		if asJSON {
			_ = ob.reg.WriteJSON(os.Stdout)
		} else {
			_ = ob.reg.WritePrometheus(os.Stdout)
		}
	}
}

type rtlOpts struct {
	n, buf  int
	cycles  int64
	traffic pipemem.TrafficConfig
	policy  pipemem.BufferPolicy
}

// runObserved drives the cycle-accurate pipelined switch, with the
// observer installed when one was requested (ob may be nil for a plain
// -arch rtl run), and prints the run result; the deferred finish in main
// emits the metrics snapshot.
func runObserved(ob *observed, o rtlOpts) {
	sw, err := pipemem.New(pipemem.Config{Ports: o.n, WordBits: 16, Cells: o.buf, CutThrough: true})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	if ob != nil {
		sw.SetObserver(ob.observer)
	}
	if o.policy != nil {
		sw.SetBufferPolicy(o.policy)
	}
	cs, err := pipemem.NewCellStream(o.traffic, sw.Config().Stages)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	res, err := pipemem.RunTraffic(sw, cs, o.cycles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	fmt.Println(res)
}

type sessOpts struct {
	n, buf      int
	cycles      int64
	seed        uint64
	traffic     pipemem.TrafficConfig
	faultplan   string
	events      int
	ecc         bool
	bypass      int
	linkprotect bool
	polSpec     string
	obs         *observed
}

// runSession drives the RTL switch through the checkpointable session
// layer: periodic checkpoints, online invariant audits, the no-progress
// watchdog, and -restore resumption. On a watchdog or audit abort the
// partial result is still printed before the non-zero exit.
func runSession(ck *cli.CheckpointValue, o sessOpts) {
	die := func(msg string) {
		fmt.Fprintln(os.Stderr, "pmsim:", msg)
		os.Exit(2)
	}
	if o.linkprotect {
		die("-checkpoint/-restore/-audit/-watchdog do not cover the -linkprotect harness (CRC link state is not serialized); drop -linkprotect")
	}
	opts := pipemem.SimOptions{
		Path:           ck.Path,
		Every:          ck.EffectiveEvery(o.cycles),
		AuditEvery:     ck.AuditEvery,
		WatchdogWindow: ck.Watchdog,
	}
	if o.obs != nil {
		opts.Observer = o.obs.observer
	}
	var s *pipemem.SimSession
	var err error
	if ck.Restore != "" {
		if o.faultplan != "" {
			die("-restore resumes the checkpoint's own fault plan; drop -faultplan")
		}
		if o.polSpec != "" {
			die("-restore resumes the checkpoint's own buffer policy; drop -bufpolicy")
		}
		s, err = pipemem.ResumeSession(ck.Restore, opts)
	} else {
		spec := pipemem.SimSpec{
			Switch:  pipemem.Config{Ports: o.n, WordBits: 16, Cells: o.buf, CutThrough: true},
			Traffic: o.traffic,
			Cycles:  o.cycles,
			Policy:  o.polSpec,
		}
		if o.faultplan != "" {
			spec.Switch = pipemem.Config{
				Ports: o.n, Cells: o.buf, CutThrough: !o.ecc,
				ECC: o.ecc, BypassThreshold: o.bypass,
			}
			plan, perr := loadPlan(o.faultplan, faultOpts{
				n: o.n, cycles: o.cycles, seed: o.seed, events: o.events,
			})
			if perr != nil {
				fmt.Fprintln(os.Stderr, "pmsim:", perr)
				os.Exit(1)
			}
			spec.Plan, spec.FaultSeed = plan, o.seed
		}
		s, err = pipemem.NewSession(spec, opts)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	res, rerr := s.Run()
	fmt.Println(res)
	if eng := s.Engine(); eng != nil {
		tallies := eng.Counters().Snapshot()
		for _, k := range []string{"mem", "stuck", "ctrl", "inreg"} {
			if a, sk := tallies["applied-"+k], tallies["skipped-"+k]; a+sk > 0 {
				fmt.Printf("faults: %-11s applied=%d skipped=%d\n", k, a, sk)
			}
		}
	}
	if rerr != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", rerr)
		os.Exit(1)
	}
}

type faultOpts struct {
	n, buf      int
	load        float64
	cycles      int64
	seed        uint64
	ecc         bool
	bypass      int
	linkprotect bool
	retries     int
	events      int
	obs         *observed
	policy      pipemem.BufferPolicy
}

// runFaultPlan drives the cycle-accurate switch under a fault schedule and
// prints the report, the final health state, and the engine's per-kind
// tallies.
func runFaultPlan(src string, o faultOpts) {
	plan, err := loadPlan(src, o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
	var observer *pipemem.Observer
	if o.obs != nil {
		observer = o.obs.observer
	}
	rep, err := pipemem.RunFaults(pipemem.FaultRunOptions{
		Config: pipemem.Config{
			Ports: o.n, Cells: o.buf, CutThrough: !o.ecc,
			ECC: o.ecc, BypassThreshold: o.bypass,
		},
		Plan:        plan,
		Seed:        o.seed,
		Cycles:      o.cycles,
		Load:        o.load,
		LinkProtect: o.linkprotect,
		MaxRetries:  o.retries,
		Observer:    observer,
		Policy:      o.policy,
	})
	if rep != nil {
		fmt.Println(rep)
		h := rep.Health
		fmt.Printf("health: degraded=%v failed=%v usable-cells=%d ecc-hard=%d bypass-drops=%d\n",
			h.Degraded, h.Failed, h.UsableCells, h.ECCHard, h.BypassDrops)
		for _, k := range []string{"mem", "stuck", "ctrl", "inreg", "linkdrop", "linkcorrupt"} {
			if a, s := rep.Engine["applied-"+k], rep.Engine["skipped-"+k]; a+s > 0 {
				fmt.Printf("faults: %-11s applied=%d skipped=%d\n", k, a, s)
			}
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "pmsim:", err)
		os.Exit(1)
	}
}

// loadPlan resolves the -faultplan argument: a seeded random plan, stdin,
// or a plan file.
func loadPlan(src string, o faultOpts) (*pipemem.FaultPlan, error) {
	if src == "random" {
		kinds := []pipemem.FaultKind{pipemem.FaultMem}
		if o.linkprotect {
			kinds = []pipemem.FaultKind{pipemem.FaultLinkDrop, pipemem.FaultLinkCorrupt}
		}
		return pipemem.RandomFaultPlan(o.seed, pipemem.FaultRandomOptions{
			Cycles: o.cycles, Events: o.events, Stages: 2 * o.n,
			WordBits: 16, Inputs: o.n, Kinds: kinds,
		}), nil
	}
	var text []byte
	var err error
	if src == "-" {
		text, err = io.ReadAll(os.Stdin)
	} else {
		text, err = os.ReadFile(src)
	}
	if err != nil {
		return nil, err
	}
	return pipemem.ParseFaultPlan(string(text))
}
