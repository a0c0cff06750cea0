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
// With -arch rtl, -faultplan, -metrics, -trace, -pprof or a checkpoint
// flag, pmsim instead drives the cycle-accurate pipelined memory switch —
// one session, whatever the flags: traffic.CellStream arrivals (every
// traffic flag applies), an optional fault plan, optional CRC links.
//
// -faultplan runs the switch while a fault schedule unfolds and reports,
// under the result line, corruption, ECC activity, bypasses, link
// retransmissions, the switch's health and each fault kind's applied and
// skipped tally. Corrupted deliveries are that run's measurement, not its
// failure: it exits 1 only on a conservation violation, a drain that left
// cells behind, an audit failure or a tripped watchdog.
//
//	pmsim -faultplan plan.txt -n 4 -buf 32 -load 0.6 -slots 100000 -ecc
//	pmsim -faultplan random -n 4 -buf 32 -ecc -bypass 3 -bursty 8
//	pmsim -faultplan - < plan.txt -n 4 -linkprotect -retries 6
//
// The plan format is one event per line: "@<cycle> <kind> key=val…"
// (kinds: mem, stuck, ctrl, inreg, linkdrop, linkcorrupt); "random"
// generates a seeded random plan (link events with -linkprotect, memory
// upsets without), "-" reads standard input.
//
// -metrics prints a Prometheus-style snapshot of the run's metrics after
// the result line (-metrics-json: the JSON snapshot), -trace writes the
// structured JSONL event stream, and -pprof ADDR serves /metrics,
// /metrics.json and /debug/pprof/ on ADDR while running:
//
//	pmsim -metrics -trace out.jsonl -n 8 -buf 256 -load 0.9 -slots 100000
//	pmsim -faultplan random -ecc -metrics       # observe a fault run
//
// -checkpoint FILE writes periodic crash-consistent snapshots of the
// complete simulation state (every -ckpt-every cycles, default
// cycles/10); -restore FILE resumes one — traffic, buffer policy, fault
// plan and link state come from the file — and finishes bit-identically
// to the uninterrupted run. -audit N verifies internal invariants
// (conservation, occupancy, §3.2 hazard-freedom) every N cycles;
// -watchdog N aborts with a diagnostic checkpoint (FILE.stuck) if no cell
// moves for N cycles while some are pending. None of the four changes
// what the run simulates or prints:
//
//	pmsim -arch rtl -n 8 -buf 256 -slots 200000 -checkpoint run.ckpt
//	pmsim -restore run.ckpt
//	pmsim -faultplan plan.txt -ecc -checkpoint run.ckpt -audit 1000 -watchdog 5000
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
		die(2, err)
	}
	if err := tracef.Validate(); err != nil {
		die(2, err)
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

	// -sweep is a plain load sweep of one architecture; the run paths below
	// run a single point and would drop it.
	if *sweep && (*fabricKind != "" || *faultplan != "" || ckptf.Active() || observe) {
		die(2, "-sweep runs a plain load sweep; it does not combine with -fabric, -faultplan, -checkpoint/-restore/-audit/-watchdog, -metrics/-trace or -pprof")
	}

	// A -fabric run drives the multistage engine, which has its own
	// metrics surface; it composes with the traffic and -bufpolicy flags
	// but not with the single-switch session (fault plans, checkpoints).
	if *fabricKind != "" {
		if *faultplan != "" || ckptf.Active() || *pprofAddr != "" {
			die(2, "-fabric does not combine with -faultplan, -checkpoint/-restore or -pprof")
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
				die(2, fmt.Sprintf("%s; drop -%s", why, f.Name))
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
		die(2, "-telemetry samples the multistage engine; it needs -fabric butterfly|clos")
	}

	var ob *observed
	if observe {
		var err error
		if ob, err = newObserved(*n, tracef.Out, tracef.Sample, *pprofAddr); err != nil {
			die(1, err)
		}
		defer ob.finish(*metrics || *metricsJSON, *metricsJSON)
	}

	// Everything on the cycle-accurate switch is one session: -arch rtl,
	// a fault plan, the observability flags (the observer lives in the RTL
	// model, not the slot-level §2 simulators) and the checkpoint group.
	if observe || *arch == "rtl" || *faultplan != "" || ckptf.Active() {
		if *sweep {
			sweepRTL(*n, *buf, *slots, bufpol.Spec(), trafficAt)
			return
		}
		// An explicit slot-level -arch would be silently ignored by a
		// checkpointed run, so refuse it instead.
		archSet := false
		flag.Visit(func(f *flag.Flag) { archSet = archSet || f.Name == "arch" })
		if ckptf.Active() && archSet && *arch != "rtl" {
			die(2, fmt.Sprintf("-checkpoint/-restore/-audit/-watchdog drive the RTL model, not -arch %s; use -arch rtl or drop -arch", *arch))
		}
		spec := pipemem.SimSpec{
			Switch:  pipemem.Config{Ports: *n, WordBits: 16, Cells: *buf, CutThrough: true},
			Traffic: trafficAt(*load),
			Cycles:  *slots,
			Policy:  bufpol.Spec(),
		}
		switch {
		case ckptf.Restore == "":
		case *faultplan != "":
			die(2, "-restore resumes the checkpoint's own fault plan; drop -faultplan")
		case *linkprot:
			die(2, "-restore resumes the checkpoint's own link state; drop -linkprotect")
		case spec.Policy != "":
			die(2, "-restore resumes the checkpoint's own buffer policy; drop -bufpolicy")
		}
		if *faultplan != "" {
			// Cut-through cells never read the banks, so ECC and bypass runs
			// are store-and-forward: the faults have to be visible.
			withECC := *ecc || *bypass > 0
			spec.Switch = pipemem.Config{Ports: *n, Cells: *buf, CutThrough: !withECC, ECC: withECC, BypassThreshold: *bypass}
			random := pipemem.FaultRandomOptions{
				Cycles: *slots, Events: *events, Stages: 2 * *n, WordBits: 16, Inputs: *n,
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
		runSession(ckptf, spec, ob)
		return
	}
	// The §2 slot-level simulators have no shared-buffer admission hook;
	// refuse the flag rather than silently ignoring it.
	if bufpol.Got() {
		die(2, "-bufpolicy applies to the RTL model only (-arch rtl, -faultplan, -metrics or -trace)")
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
			die(2, fmt.Sprintf("unknown architecture %q", *arch))
			return nil
		}
	}

	run := func(p float64) {
		g, err := pipemem.NewGenerator(trafficAt(p))
		if err != nil {
			die(1, err)
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
// sizes the default checkpoint cadence) — and prints the result line, then
// the fault report when the run carries a plan. On a watchdog or audit
// abort the partial result is still printed before the non-zero exit.
func runSession(ck *cli.CheckpointValue, spec pipemem.SimSpec, ob *observed) {
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
	res, err := s.Run()
	fmt.Println(res)
	if rep := s.Report(res); rep != nil {
		fmt.Println(rep)
	}
	if err != nil {
		die(1, err)
	}
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
