// Command pmsim is the pipemem simulator: the slot-level §2 switch-buffering
// architectures, the multistage fabrics (-fabric butterfly|clos), and the
// four cycle-accurate memory organizations — the pipelined memory and the
// three the paper compares it with. It prints throughput / loss / latency.
//
//	pmsim -arch shared -n 16 -load 0.8 -buf 86 -slots 1000000
//	pmsim -arch voq -sched islip -n 16 -saturate
//	pmsim -sweep -arch output -n 16 -buf 12        # load sweep 0.1..0.95
//	pmsim -sweep -arch rtl -n 8 -buf 256           # the same on the RTL model, one worker per load
//	pmsim -arch dual -n 8 -buf 256 -perm           # §3.5 half quantum; also wide (§5.2), prizma (§5.3)
//	pmsim -arch rtl -model t3                      # Telegraphos III, with its link rate in Mb/s
//
// The traffic flags pick one arrival process: Bernoulli at -load, or
// -saturate, -perm, -bursty or -hot. -arch dual, wide and prizma run
// through pipemem.Run and refuse every flag only the session below
// implements. -arch rtl, or any flag only that session implements or only
// the pipelined switch reads (-faultplan, -metrics, -trace, -pprof, -fig5,
// -vcd, a checkpoint flag, -vcs, -store-and-forward, -model), drives the
// cycle-accurate pipelined memory switch through one session.
//
// -fig5 prints the per-cycle fig. 5 control/datapath trace, or with -trace
// FILE writes its records into that JSONL stream; -vcd FILE writes it as a
// waveform instead. -metrics prints a Prometheus-style snapshot after the
// result (-metrics-json: JSON), -trace writes the typed JSONL events, and
// -pprof ADDR serves /metrics, /metrics.json and /debug/pprof/ while running:
//
//	pmsim -arch rtl -n 2 -buf 8 -load 0.6 -slots 40 -fig5
//	pmsim -metrics -trace out.jsonl -fig5 -n 8 -buf 256 -load 0.9 -slots 100000
//
// -faultplan runs the switch while a fault schedule unfolds — a plan file,
// "-" for stdin, or "random" (link events with -linkprotect, memory upsets
// without); one event per line, "@<cycle> <kind> key=val…" with kinds mem,
// stuck, inreg, linkdrop and linkcorrupt — and reports corruption, ECC
// activity, retransmissions and each kind's applied and skipped tally under
// the result. Corrupted deliveries are the measurement: the run exits 1 only
// on a conservation violation, a drain that left cells behind, an audit
// failure or a tripped watchdog.
//
//	pmsim -faultplan random -n 4 -buf 32 -load 0.6 -slots 100000 -ecc
//	pmsim -faultplan - < plan.txt -n 4 -linkprotect -retries 6
//
// -checkpoint FILE writes crash-consistent snapshots (every -ckpt-every
// cycles, default cycles/10); -restore FILE resumes one to the bit-identical
// end of the uninterrupted run, and refuses the flags that would describe
// another switch, stream or plan (-slots stays: it sizes the cadence).
// -audit N verifies the invariants every N cycles; -watchdog N aborts with a
// diagnostic checkpoint (FILE.stuck) if no cell moves for N cycles while
// some are pending. None of the four changes what the run prints:
//
//	pmsim -arch rtl -n 8 -buf 256 -slots 200000 -checkpoint run.ckpt -audit 1000
//	pmsim -restore run.ckpt
package main

import (
	"cmp"
	"flag"
	"fmt"
	"io"
	"os"

	"pipemem"
	"pipemem/internal/bench"
	"pipemem/internal/cli"
)

// sessionOnly are the flags only the session on the cycle-accurate
// switch implements; naming one selects it (or refuses a slot-level -arch).
var sessionOnly = []string{"faultplan", "metrics", "metrics-json", "trace", "pprof",
	"checkpoint", "restore", "audit", "watchdog", "fig5", "vcd"}

// notImplemented lists, per rival organization, the flags it would have to
// ignore: they are refused instead. (-vcs reaches the dual switch's
// constructor, which refuses it with its own reason.)
var (
	pipelinedOnly  = append([]string{"sweep", "bufpolicy", "trace-sample", "ckpt-every", "ecc", "linkprotect", "retries", "events"}, sessionOnly...)
	notImplemented = map[string][]string{
		"dual":   pipelinedOnly,
		"wide":   append([]string{"vcs"}, pipelinedOnly...),
		"prizma": append([]string{"vcs", "store-and-forward"}, pipelinedOnly...),
	}
	models = map[string]func() pipemem.TelegraphosModel{
		"t1": pipemem.TelegraphosI, "t2": pipemem.TelegraphosII, "t3": pipemem.TelegraphosIII,
	}
)

func main() {
	var (
		arch     = flag.String("arch", "shared", "architecture: input-fifo|voq|output|shared|shared-capped|crosspoint|block-crosspoint|smoothing|speedup, or a cycle-accurate organization: rtl|dual|wide|prizma")
		n        = flag.Int("n", 16, "switch size (n×n)")
		load     = flag.Float64("load", 0.8, "offered load per input in (0,1]")
		saturate = flag.Bool("saturate", false, "saturation mode (backlogged inputs)")
		perm     = flag.Bool("perm", false, "admissible rotating-permutation traffic at full rate")
		bursty   = flag.Float64("bursty", 0, "mean burst length in cells (0 = Bernoulli)")
		hotFrac  = flag.Float64("hot", 0, "hotspot fraction toward port 0 (0 = uniform)")
		buf      = flag.Int("buf", 64, "buffer parameter (total cells for shared and the cycle-accurate organizations; per-port otherwise)")
		outCap   = flag.Int("outcap", 16, "per-output occupancy cap for shared-capped")
		group    = flag.Int("group", 4, "block size for block-crosspoint")
		speedup  = flag.Int("speedup", 2, "internal speedup for the speedup fabric")
		sched    = flag.String("sched", "islip", "VOQ scheduler: islip|pim|2drr")
		slots    = flag.Int64("slots", 500_000, "measured slots (cycles of a cycle-accurate run)")
		warmup   = flag.Int64("warmup", 0, "warm-up slots (default slots/10)")
		seed     = flag.Uint64("seed", 1, "PRNG seed")
		sweep    = flag.Bool("sweep", false, "sweep load 0.1..0.95 instead of a single point")

		vcs   = flag.Int("vcs", 1, "cycle-accurate run: virtual channels per output link ([KVES95])")
		nocut = flag.Bool("store-and-forward", false, "cycle-accurate run: disable automatic cut-through")
		model = flag.String("model", "", "cycle-accurate run: a Telegraphos prototype's geometry and clock instead of -n/-buf: t1|t2|t3")
		fig5  = flag.Bool("fig5", false, "RTL run: print the per-cycle control trace (fig. 5); with -trace FILE, write it to that stream")
		vcd   = flag.String("vcd", "", "RTL run: write the fig. 5 trace as a VCD waveform to this file (GTKWave etc.)")

		fabricKind = flag.String("fabric", "", "multistage fabric run: butterfly|clos (uses -terminals/-radix/-middles/-credits/-fabric-workers and the shared traffic flags)")
		terminals  = flag.Int("terminals", 64, "fabric run: external terminal count (butterfly; must be radix^s)")
		radix      = flag.Int("radix", 8, "fabric run: per-node port count (clos terminals = radix²)")
		middles    = flag.Int("middles", 0, "fabric run: populated Clos middle switches (0 = radix)")
		credits    = flag.Int("credits", 4, "fabric run: per-inter-stage-link credits (0 disables flow control)")
		fworkers   = flag.Int("fabric-workers", 1, "fabric run: engine shard workers (0 = GOMAXPROCS; results are bit-identical across counts)")

		faultplan = flag.String("faultplan", "", "fault-injection run: plan file, '-' for stdin, or 'random'")
		ecc       = flag.Bool("ecc", false, "fault run: SEC-DED protect the memory banks")
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
		die(2, err)
	}
	if err := tracef.Validate(); err != nil {
		die(2, err)
	}
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	// refuse exits 2 on the first of names given on the command line: a
	// flag the run would drop. msg formats the reason around its name.
	refuse := func(msg string, names ...string) {
		for _, name := range names {
			if set[name] {
				die(2, fmt.Sprintf(msg, "-"+name))
			}
		}
	}
	// -sched picks the VOQ matcher; any other run would drop it.
	if *arch != "voq" || *fabricKind != "" {
		refuse("%s picks the -arch voq scheduler; drop it or use -arch voq", "sched")
	}
	// One arrival process per run, and a full-rate one has no load to set
	// or sweep.
	switch full := "-saturate and -perm are full-rate arrival processes of their own; drop %s"; {
	case *saturate:
		refuse(full, "perm", "bursty", "hot", "load", "sweep")
	case *perm:
		refuse(full, "bursty", "hot", "load", "sweep")
	case *bursty > 0:
		refuse("-bursty and -hot each pick the arrival process; drop %s", "hot")
	}
	// -sweep is a plain load sweep; the other run paths run a single point
	// and would drop it.
	if *sweep {
		refuse("-sweep runs a plain load sweep; it does not combine with %s", append([]string{"fabric"}, sessionOnly...)...)
	}
	if ckptf.Restore != "" {
		refuse("-restore resumes the checkpoint's own run; drop %s", "faultplan", "linkprotect", "bufpolicy",
			"n", "buf", "load", "saturate", "perm", "bursty", "hot", "seed", "vcs", "store-and-forward", "model", "ecc", "retries", "events")
	}

	// swcfg is the cycle-accurate switch the flags describe; -model takes a
	// prototype's geometry, and its clock for the Mb/s line.
	swcfg := pipemem.Config{Ports: *n, WordBits: 16, Cells: *buf, CutThrough: !*nocut, VCs: *vcs}
	var clockNs float64
	if *model != "" {
		newModel, ok := models[*model]
		if !ok {
			die(2, fmt.Sprintf("unknown model %q: want t1, t2 or t3", *model))
		}
		refuse("-model sets the switch's ports and cells; drop %s", "n", "buf")
		m := newModel()
		swcfg, clockNs = m.SwitchConfig(), m.ClockNs
		swcfg.CutThrough, swcfg.VCs = !*nocut, *vcs
		*n = swcfg.Ports
	}
	// printRate is the -model line under a result: the link rate sustained.
	printRate := func(res pipemem.RunResult) {
		if clockNs > 0 {
			fmt.Printf("at %.1f ns/cycle: %.0f Mb/s per link sustained (util %.3f × %d b / %.1f ns)\n",
				clockNs, res.Utilization*float64(swcfg.WordBits)/clockNs*1000, res.Utilization, swcfg.WordBits, clockNs)
		}
	}

	// trafficAt is the arrival process the shared traffic flags select, at
	// offered load p.
	trafficAt := func(p float64) pipemem.TrafficConfig {
		cfg := pipemem.TrafficConfig{Kind: pipemem.Bernoulli, N: *n, Load: p, Seed: *seed}
		switch {
		case *saturate:
			cfg.Kind = pipemem.Saturation
		case *perm:
			cfg.Kind, cfg.Load = pipemem.Permutation, 1
		case *bursty > 0:
			cfg.Kind, cfg.BurstLen = pipemem.Bursty, *bursty
		case *hotFrac > 0:
			cfg.Kind, cfg.HotFrac = pipemem.Hotspot, *hotFrac
		}
		return cfg
	}

	// A -fabric run drives the multistage engine, which has its own
	// metrics surface; it composes with the traffic and -bufpolicy flags
	// but not with the single-switch flags, nor with one the chosen
	// network would ignore.
	if *fabricKind != "" {
		refuse("-fabric builds a multistage network; drop %s", "arch", "faultplan", "checkpoint", "restore", "audit", "watchdog",
			"pprof", "fig5", "vcd", "vcs", "store-and-forward", "model")
		switch *fabricKind {
		case "butterfly":
			refuse("a butterfly has no middle stage to populate; drop %s", "middles")
		case "clos":
			refuse("a Clos network has radix² terminals; drop %s", "terminals")
		}
		runFabric(fabricOpts{
			kind: *fabricKind, terminals: *terminals, radix: *radix,
			middles: *middles, cells: *buf, credits: *credits, workers: *fworkers,
			traffic: trafficAt(*load), cycles: *slots, warmup: *warmup, policy: bufpol.Spec(),
			metrics: *metrics, metricsJSON: *metricsJSON, trace: tracef,
		})
		return
	}
	if tracef.TelemetryOut != "" {
		die(2, "-telemetry samples the multistage engine; it needs -fabric butterfly|clos")
	}

	// The rival organizations run on Run, which has no session: a flag
	// only the session implements is refused.
	if _, ok := notImplemented[*arch]; ok {
		refuse(fmt.Sprintf("the %s organization does not implement %%s; drop it", *arch), notImplemented[*arch]...)
		res := runOrg(*arch, swcfg, trafficAt(*load), *slots)
		fmt.Printf("%s: %s\n", *arch, res)
		printRate(res)
		return
	}

	// Everything else on the cycle-accurate switch is one session: -arch
	// rtl, or any flag only the session implements (a fault plan, the
	// observability flags, the fig. 5 taps, the checkpoint group) or that
	// only the switch reads. An explicit slot-level -arch would be dropped,
	// so it is refused instead.
	rtl := *arch == "rtl"
	for _, name := range append([]string{"vcs", "store-and-forward", "model"}, sessionOnly...) {
		if set[name] && !rtl {
			if set["arch"] {
				die(2, fmt.Sprintf("-%s drives the RTL model, not -arch %s; use -arch rtl or drop -arch", name, *arch))
			}
			rtl = true
		}
	}
	if rtl {
		if *sweep {
			sweepRTL(swcfg, *slots, bufpol.Spec(), trafficAt)
			return
		}
		if *fig5 && *vcd != "" {
			die(2, "-fig5 and -vcd both tap the switch's one tracer; give one")
		}
		var ob *observed
		if *metrics || *metricsJSON || tracef.Out != "" || *pprofAddr != "" {
			var err error
			if ob, err = newObserved(*n, tracef.Out, tracef.Sample, *pprofAddr); err != nil {
				die(1, err)
			}
			defer ob.finish(*metrics || *metricsJSON, *metricsJSON)
		}
		spec := pipemem.SimSpec{Switch: swcfg, Traffic: trafficAt(*load), Cycles: *slots, Policy: bufpol.Spec()}
		if *faultplan != "" {
			// Cut-through cells never read the banks, so ECC runs are
			// store-and-forward: the faults have to be visible.
			spec.Switch.ECC = *ecc
			spec.Switch.CutThrough = spec.Switch.CutThrough && !*ecc
			random := pipemem.FaultRandomOptions{
				Cycles: *slots, Events: *events, Stages: swcfg.Canonical().Stages, WordBits: swcfg.WordBits, Inputs: *n,
				Kinds: []pipemem.FaultKind{pipemem.FaultMem},
			}
			if *linkprot {
				random.Kinds = []pipemem.FaultKind{pipemem.FaultLinkDrop, pipemem.FaultLinkCorrupt}
			}
			var err error
			if spec.Plan, err = loadPlan(*faultplan, *seed, random); err != nil {
				die(1, err)
			}
			spec.FaultSeed, spec.LinkProtect, spec.MaxRetries = *seed, *linkprot, *retries
		}
		res := runSession(ckptf, spec, ob, *fig5, *vcd, clockNs)
		printRate(res)
		return
	}
	// The §2 slot-level simulators have no shared-buffer admission hook;
	// refuse the flag rather than silently ignoring it.
	if bufpol.Got() {
		die(2, "-bufpolicy applies to the RTL model only (-arch rtl, -faultplan, -metrics or -trace)")
	}

	// build returns the architecture, or the error its constructor gave
	// for a value it cannot be built with, and the flag that carried it.
	build := func() (pipemem.Arch, string, error) {
		switch *arch {
		case "input-fifo":
			return pipemem.NewInputFIFO(*n, *buf), "", nil
		case "voq":
			a, err := pipemem.NewVOQ(*n, *buf, *sched)
			return a, "-sched", err
		case "output":
			return pipemem.NewOutputQueue(*n, *buf), "", nil
		case "shared":
			return pipemem.NewSharedBufferArch(*n, *buf), "", nil
		case "shared-capped":
			return pipemem.NewCappedSharedBufferArch(*n, *buf, *outCap), "", nil
		case "crosspoint":
			return pipemem.NewCrosspoint(*n, *buf), "", nil
		case "block-crosspoint":
			a, err := pipemem.NewBlockCrosspoint(*n, *group, *buf)
			return a, "-group", err
		case "smoothing":
			return pipemem.NewInputSmoothing(*n, *buf), "", nil
		case "speedup":
			a, err := pipemem.NewSpeedupFabric(*n, *buf, *buf, *speedup)
			return a, "-speedup", err
		default:
			die(2, fmt.Sprintf("unknown architecture %q", *arch))
			return nil, "", nil
		}
	}

	run := func(p float64) {
		a, flagName, err := build()
		if err != nil {
			die(2, fmt.Sprintf("%s: %v", flagName, err))
		}
		tcfg := trafficAt(p)
		g, err := pipemem.NewCellStream(tcfg, 1)
		if err != nil {
			die(1, err)
		}
		res := pipemem.RunArch(a, g, *warmup, *slots)
		// A saturated stream offers a cell on every input every slot and
		// reads no load: its row says so instead of echoing -load.
		load := fmt.Sprintf("%.2f", tcfg.Load)
		if tcfg.Kind == pipemem.Saturation {
			load = "sat"
		}
		fmt.Printf("load=%s  %s\n", load, res)
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
func sweepRTL(cfg pipemem.Config, cycles int64, policy string, trafficAt func(float64) pipemem.TrafficConfig) {
	pts := make([]bench.Point, len(sweepLoads))
	for i, p := range sweepLoads {
		pts[i] = bench.Point{
			Label:   fmt.Sprintf("load=%.2f", p),
			Config:  cfg,
			Traffic: trafficAt(p),
			Cycles:  cycles,
			Policy:  policy,
		}
	}
	results, err := bench.Sweep(0, pts)
	if err != nil {
		die(1, err)
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

// runSession drives the cycle-accurate switch through a session — with
// whatever of fault plan, CRC links, observer, checkpoints, audits and
// watchdog the flags ask for, or resumed from a checkpoint (spec then only
// sizes the default checkpoint cadence) — with the fig. 5 tap on its
// switch that fig5 or vcdPath asks for, and prints the result line, then
// the fault report when the run carries a plan. On a watchdog or audit
// abort the partial result is still printed before the non-zero exit.
func runSession(ck *cli.CheckpointValue, spec pipemem.SimSpec, ob *observed, fig5 bool, vcdPath string, clockNs float64) pipemem.RunResult {
	opts := pipemem.SimOptions{
		Path:           ck.Path,
		Every:          ck.EffectiveEvery(spec.Cycles),
		AuditEvery:     ck.AuditEvery,
		WatchdogWindow: ck.Watchdog,
	}
	if ob != nil {
		opts.Observer = ob.observer
	}
	var s *pipemem.SimSession
	var err error
	if ck.Restore != "" {
		s, err = pipemem.ResumeSession(ck.Restore, opts)
	} else {
		s, err = pipemem.NewSession(spec, opts)
	}
	if err != nil {
		die(1, err)
	}
	var vcd *pipemem.VCDWriter
	var vcdFile *os.File
	switch sw := s.Switch(); {
	case vcdPath != "":
		if vcdFile, err = os.Create(vcdPath); err != nil {
			die(1, err)
		}
		// A prototype's clock times the waveform; else one unit a cycle.
		vcd = pipemem.NewVCDWriter(vcdFile, sw, max(clockNs, 1))
		sw.SetTracer(vcd.Trace)
	case fig5 && ob != nil && ob.sink != nil:
		// The per-cycle records join the typed events' JSONL stream.
		sw.SetTracer(pipemem.JSONTracer(ob.sink))
	case fig5:
		sw.SetTracer(func(e pipemem.TraceEvent) { fmt.Println(e) })
	}
	res, err := s.Run()
	if vcd != nil {
		if werr := cmp.Or(vcd.Err(), vcdFile.Close()); werr != nil {
			die(1, werr)
		}
	}
	fmt.Println(res)
	if rep := s.Report(res); rep != nil {
		fmt.Println(rep)
	}
	if err != nil {
		die(1, err)
	}
	return res
}

// runOrg runs one of the organizations the paper compares the pipelined
// memory with (§3.5 dual, §5.2 wide memory, §5.3 PRIZMA) at cfg's
// geometry, through Run.
func runOrg(name string, cfg pipemem.Config, tcfg pipemem.TrafficConfig, cycles int64) pipemem.RunResult {
	var (
		org pipemem.Organization
		err error
	)
	switch name {
	case "dual":
		org, err = pipemem.NewDual(cfg)
	case "wide":
		org, err = pipemem.NewWide(pipemem.WideConfig{
			Ports: cfg.Ports, WordBits: cfg.WordBits, Cells: cfg.Cells, CutThroughCrossbar: cfg.CutThrough,
		})
	case "prizma":
		org, err = pipemem.NewPrizma(pipemem.PrizmaConfig{Ports: cfg.Ports, Banks: cfg.Cells, WordBits: cfg.WordBits})
	}
	if err != nil {
		die(1, err)
	}
	cs, err := pipemem.NewCellStream(tcfg, org.Geometry().CellWords)
	if err != nil {
		die(1, err)
	}
	res, err := pipemem.Run(org, cs, cycles)
	if err != nil {
		die(1, err)
	}
	return res
}

// loadPlan resolves the -faultplan argument: a seeded random plan, stdin,
// or a plan file.
func loadPlan(src string, seed uint64, random pipemem.FaultRandomOptions) (*pipemem.FaultPlan, error) {
	if src == "random" {
		return pipemem.RandomFaultPlan(seed, random), nil
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

// die prints a one-line message to stderr and exits with code: 2 for a
// flag combination pmsim refuses, 1 for a run that failed.
func die(code int, msg any) {
	fmt.Fprintln(os.Stderr, "pmsim:", msg)
	os.Exit(code)
}
