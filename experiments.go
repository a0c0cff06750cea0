package pipemem

import (
	"fmt"
	"math"
	"strings"

	"pipemem/internal/analytic"
	"pipemem/internal/arb"
	"pipemem/internal/bench"
	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/sim"
	"pipemem/internal/traffic"
	"pipemem/internal/wormhole"
)

// Scale selects how much simulation an experiment spends: Quick for
// benchmarks and CI, Full for the EXPERIMENTS.md numbers.
type Scale int

// Scales.
const (
	Quick Scale = iota
	Full
)

// slots returns a scaled iteration count.
func (s Scale) slots(quick, full int64) int64 {
	if s == Full {
		return full
	}
	return quick
}

// ExpRow is one paper-vs-measured comparison line.
type ExpRow struct {
	Label    string
	Paper    string
	Measured string
	OK       bool
}

// ExpResult is the outcome of one experiment.
type ExpResult struct {
	ID, Title, Ref string
	Rows           []ExpRow
	Notes          string
}

// Pass reports whether every row's shape check held.
func (r ExpResult) Pass() bool {
	for _, row := range r.Rows {
		if !row.OK {
			return false
		}
	}
	return true
}

// String renders the result as an aligned text table.
func (r ExpResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s (%s): %s\n", r.ID, r.Title, r.Ref, passStr(r.Pass()))
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "  %-44s paper: %-22s measured: %-22s %s\n",
			row.Label, row.Paper, row.Measured, passStr(row.OK))
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "  note: %s\n", r.Notes)
	}
	return b.String()
}

// Markdown renders the result as a GitHub table section.
func (r ExpResult) Markdown() string {
	var b strings.Builder
	fmt.Fprintf(&b, "### %s — %s (%s)\n\n", r.ID, r.Title, r.Ref)
	b.WriteString("| Quantity | Paper | Measured | Shape |\n|---|---|---|---|\n")
	for _, row := range r.Rows {
		fmt.Fprintf(&b, "| %s | %s | %s | %s |\n", row.Label, row.Paper, row.Measured, passStr(row.OK))
	}
	if r.Notes != "" {
		fmt.Fprintf(&b, "\n%s\n", r.Notes)
	}
	b.WriteString("\n")
	return b.String()
}

func passStr(ok bool) string {
	if ok {
		return "ok"
	}
	return "MISMATCH"
}

// Experiment is one reproducible claim of the paper.
type Experiment struct {
	ID, Title, Ref string
	Run            func(Scale) (ExpResult, error)
}

// Experiments returns the per-experiment index of DESIGN.md: the paper's
// claims E1–E14, then X1–X6, experiments beyond its published evaluation.
// The X experiments cover the §4.3 optimizations the authors describe for
// "future very-high-speed IC technologies" but did not measure, and the §2
// claim that the switch composes into multistage fabrics. The paper gives no
// numbers for them, so their checks are its qualitative predictions.
func Experiments() []Experiment {
	return []Experiment{
		{"E1", "Input-FIFO queueing saturation (head-of-line blocking)", "§2.1, [KaHM87]", E1InputQueueSaturation},
		{"E2", "Wormhole saturation with bursts exceeding buffers", "§2.1, [Dally90 fig.8]", E2WormholeSaturation},
		{"E3", "Buffer sizing for equal loss: shared vs output vs input smoothing", "§2.2, [HlKa88]", E3BufferSizing},
		{"E4", "Latency vs load: output/shared vs non-FIFO input buffering", "§2.2, [AOST93 fig.3]", E4LatencyVsLoad},
		{"E5", "Staggered-initiation cut-through latency", "§3.4", E5StaggeredInitiation},
		{"E6", "Packet-size quantum and half-quantum throughput", "§3.5", E6QuantumThroughput},
		{"E7", "Pipelined control: stage s repeats stage s-1 one cycle later", "§3.3, fig.5", E7ControlTrace},
		{"E8", "Telegraphos I/II/III derived specifications", "§4.1–§4.4", E8TelegraphosSpecs},
		{"E9", "Telegraphos III full-load RTL run", "§4.4", E9FullLoadRTL},
		{"E10", "Shared vs input buffering floorplan", "§5.1, fig.9", E10SharedVsInputArea},
		{"E11", "Pipelined vs wide-memory peripheral area", "§5.2", E11PeripheralArea},
		{"E12", "Pipelined vs PRIZMA interleaved buffering", "§5.3", E12PrizmaComparison},
		{"E13", "Full-custom vs standard-cell technology scaling", "§4.4", E13TechScaling},
		{"E14", "Hazard freedom: no double buffering needed", "§3.2/§3.3", E14HazardFreedom},
		{"X1", "Link pipelining (§4.3): +2R latency, logic unaffected", "§4.3", X1LinkPipelining},
		{"X2", "Critical-path timing: fig. 7a/7b, wide memory, bit-line split", "§4.2–§4.4", X2Timing},
		{"X3", "Multistage fabric of pipelined-memory switches", "§1/§2", X3Fabric},
		{"X4", "Clos network of pipelined-memory switches: middle-stage sizing", "§1/§2", X4Clos},
		{"X5", "Shared-buffer management policies: admission, thresholds, push-out", "§2.2 ext", X5BufferPolicies},
		{"X6", "Sharded parallel fabric engine: determinism and scale", "§2 ext", X6FabricScale},
	}
}

// within reports |got-want|/want ≤ tol (want ≠ 0).
func within(got, want, tol float64) bool {
	return math.Abs(got-want) <= tol*math.Abs(want)
}

// E1InputQueueSaturation measures the saturation throughput of FIFO input
// queueing across switch sizes and compares with [KaHM87]'s exact values
// and the 2-√2 asymptote — the "about 60%" of §2.1.
func E1InputQueueSaturation(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E1", Title: "Input-FIFO saturation", Ref: "§2.1 [KaHM87]"}
	measured := s.slots(100_000, 1_000_000)
	// Each size is an independent simulation with its own stream, so
	// the sweep fans across cores (bench.Map) without changing any value.
	rows, err := bench.Map(0, []int{2, 4, 8, 16, 32}, func(_ int, n int) (ExpRow, error) {
		a := sim.NewInputFIFO(n, 256)
		g, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: n, Seed: 1001}, 1)
		if err != nil {
			return ExpRow{}, err
		}
		r := sim.Run(a, g, measured/10, measured)
		want := analytic.HOLSaturation(n)
		return ExpRow{
			Label:    fmt.Sprintf("saturation throughput, n=%d", n),
			Paper:    fmt.Sprintf("%.4f", want),
			Measured: fmt.Sprintf("%.4f", r.Throughput),
			OK:       within(r.Throughput, want, 0.03),
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = "paper values: exact [KaHM87] table for n ≤ 8, 2-√2 ≈ 0.5858 beyond"
	return res, nil
}

// E2WormholeSaturation reproduces the [Dally90] regime quoted in §2.1:
// 20-flit messages, 16-flit buffers, input-buffered wormhole fabric →
// saturation far below the fixed-cell HOL bound (the paper quotes ≈25%
// for the torus's "1 lane" curve). The lane sweep reproduces the rest of
// the cited figure: virtual-channel lanes lift the saturation at constant
// total buffer storage.
func E2WormholeSaturation(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E2", Title: "Wormhole saturation", Ref: "§2.1 [Dally90]"}
	warm, meas := s.slots(20_000, 50_000), s.slots(50_000, 150_000)
	terminals := int(s.slots(64, 256))
	type cfg struct {
		label       string
		n, buf, msg int
		wantLo      float64
		wantHi      float64
		paper       string
	}
	rows, err := bench.Map(0, []cfg{
		{"20-flit msgs, 16-flit buffers (quoted point)", terminals, 16, 20, 0.2, 0.47, "≈0.25 (torus, 1 lane)"},
		{"4-flit msgs (bursts fit buffers)", terminals, 16, 4, 0.45, 1.0, "recovers"},
		{"64-flit buffers (buffers exceed bursts)", terminals, 64, 20, 0.4, 1.0, "recovers"},
	}, func(_ int, c cfg) (ExpRow, error) {
		w, err := wormhole.New(wormhole.Config{Terminals: c.n, BufferFlits: c.buf, MsgFlits: c.msg, Saturate: true, Seed: 77})
		if err != nil {
			return ExpRow{}, err
		}
		r, err := wormhole.Run(w, warm, meas)
		if err != nil {
			return ExpRow{}, err
		}
		return ExpRow{
			Label:    c.label,
			Paper:    c.paper,
			Measured: fmt.Sprintf("%.3f", r.Throughput),
			OK:       r.Throughput >= c.wantLo && r.Throughput <= c.wantHi,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	// The lane sweep of the cited figure: saturation must rise with the
	// lane count at constant total storage. The points simulate in
	// parallel; the monotonicity comparison runs on the gathered values.
	laneCounts := []int{1, 2, 4}
	thr, err := bench.Map(0, laneCounts, func(_ int, lanes int) (float64, error) {
		w, err := wormhole.NewLanes(wormhole.LaneConfig{
			Terminals: terminals, BufferFlits: 16, MsgFlits: 20,
			Lanes: lanes, Saturate: true, Seed: 78,
		})
		if err != nil {
			return 0, err
		}
		r, err := wormhole.Run(w, warm, meas)
		if err != nil {
			return 0, err
		}
		return r.Throughput, nil
	})
	if err != nil {
		return res, err
	}
	for i, lanes := range laneCounts {
		ok := i == 0 || thr[i] > thr[i-1]*1.02
		res.Rows = append(res.Rows, ExpRow{
			Label:    fmt.Sprintf("%d lane(s), same 16-flit total storage", lanes),
			Paper:    "saturation rises with lanes ([Dally90])",
			Measured: fmt.Sprintf("%.3f", thr[i]),
			OK:       ok,
		})
	}
	res.Notes = fmt.Sprintf("%d-terminal 2-ary butterfly of input-FIFO wormhole switches (DESIGN.md substitution for the torus)", terminals)
	return res, nil
}

// findBufferFor searches for the smallest buffer parameter b in [lo, hi]
// such that build(b) has loss ≤ target under the traffic configuration,
// by bisection on the (statistically monotone) loss curve.
func findBufferFor(build func(b int) sim.Arch, gcfg traffic.Config, warm, meas int64, target float64, lo, hi int) (int, float64, error) {
	loss := func(b int) (float64, error) {
		g, err := traffic.NewCellStream(gcfg, 1)
		if err != nil {
			return 0, err
		}
		r := sim.Run(build(b), g, warm, meas)
		return r.LossProb, nil
	}
	// Ensure hi is feasible.
	lHi, err := loss(hi)
	if err != nil {
		return 0, 0, err
	}
	if lHi > target {
		return hi, lHi, nil
	}
	best, bestLoss := hi, lHi
	for lo < hi {
		mid := (lo + hi) / 2
		l, err := loss(mid)
		if err != nil {
			return 0, 0, err
		}
		if l <= target {
			best, bestLoss = mid, l
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return best, bestLoss, nil
}

// E3BufferSizing reproduces the [HlKa88] comparison quoted in §2.2: the
// buffer capacity needed for loss probability 10⁻³ at a 16×16 switch
// under load 0.8 — 86 cells shared, 178 cells output-queued (11.1/port),
// 1300 cells input smoothing (80/input).
func E3BufferSizing(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E3", Title: "Buffer sizing for equal loss", Ref: "§2.2 [HlKa88]"}
	const n = 16
	const target = 1e-3
	gcfg := traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.8, Seed: 2002}
	warm, meas := s.slots(5_000, 20_000), s.slots(120_000, 1_200_000)

	// The four organizations bisect independently; each bisection is
	// internally sequential, so the parallelism is across organizations.
	type sizing struct {
		build  func(b int) sim.Arch
		lo, hi int
	}
	type sized struct {
		b    int
		loss float64
	}
	found, err := bench.Map(0, []sizing{
		{func(b int) sim.Arch { return sim.NewSharedBuffer(n, b) }, 16, 256},
		{func(b int) sim.Arch { return sim.NewOutputQueue(n, b) }, 2, 64},
		{func(b int) sim.Arch { return sim.NewInputSmoothing(n, b) }, 8, 512},
		{func(b int) sim.Arch { return sim.NewCrosspoint(n, b) }, 1, 16},
	}, func(_ int, job sizing) (sized, error) {
		b, loss, err := findBufferFor(job.build, gcfg, warm, meas, target, job.lo, job.hi)
		return sized{b, loss}, err
	})
	if err != nil {
		return res, err
	}
	shared, lossS := found[0].b, found[0].loss
	outPort, lossO := found[1].b, found[1].loss
	smooth, lossI := found[2].b, found[2].loss
	crossCap, lossX := found[3].b, found[3].loss
	outTotal := outPort * n
	smoothTotal := smooth * n
	crossTotal := crossCap * n * n
	res.Rows = []ExpRow{
		{
			Label:    "shared buffer: total cells for loss ≤ 1e-3",
			Paper:    "86 (5.4/output)",
			Measured: fmt.Sprintf("%d (loss %.1e)", shared, lossS),
			OK:       shared >= 40 && shared <= 160,
		},
		{
			Label:    "output queueing: total cells",
			Paper:    "178 (11.1/output)",
			Measured: fmt.Sprintf("%d = %d/port (loss %.1e)", outTotal, outPort, lossO),
			OK:       outTotal >= 110 && outTotal <= 320,
		},
		{
			Label:    "input smoothing: total cells",
			Paper:    "1300 (80/input)",
			Measured: fmt.Sprintf("%d = %d/input (loss %.1e)", smoothTotal, smooth, lossI),
			OK:       smoothTotal >= 700 && smoothTotal <= 2600,
		},
		{
			Label:    "crosspoint queueing: total cells (n² queues)",
			Paper:    "\"considerably higher\" than shared (§2.1)",
			Measured: fmt.Sprintf("%d = %d per crosspoint (loss %.1e)", crossTotal, crossCap, lossX),
			OK:       crossTotal > 2*shared,
		},
		{
			Label:    "ordering shared < output ≪ input",
			Paper:    "86 < 178 ≪ 1300",
			Measured: fmt.Sprintf("%d < %d ≪ %d", shared, outTotal, smoothTotal),
			OK:       shared < outTotal && outTotal*3 < smoothTotal,
		},
	}
	return res, nil
}

// E4LatencyVsLoad reproduces the shape of [AOST93 fig. 3] quoted in §2.2:
// output queueing (equivalently shared buffering) is about twice as fast
// as (non-FIFO, scheduler-driven) input buffering at loads 0.6–0.9.
func E4LatencyVsLoad(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E4", Title: "Latency vs load", Ref: "§2.2 [AOST93]"}
	const n = 16
	warm, meas := s.slots(20_000, 50_000), s.slots(150_000, 1_000_000)
	rows, err := bench.Map(0, []float64{0.5, 0.6, 0.7, 0.8, 0.9}, func(_ int, p float64) (ExpRow, error) {
		gcfg := traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 3003}
		g1, err := traffic.NewCellStream(gcfg, 1)
		if err != nil {
			return ExpRow{}, err
		}
		out := sim.Run(sim.NewOutputQueue(n, 0), g1, warm, meas)
		g2, err := traffic.NewCellStream(gcfg, 1)
		if err != nil {
			return ExpRow{}, err
		}
		voq := sim.Run(sim.NewVOQ(n, 0, arb.NewISLIP(n, 1)), g2, warm, meas)
		// Latencies in cell times; +1 converts wait to sojourn so the
		// zero-wait light-load case stays finite.
		ratio := (voq.MeanLatency + 1) / (out.MeanLatency + 1)
		ok := ratio > 1.0
		if p >= 0.6 {
			ok = ratio >= 1.3 // "about twice", allow breadth
		}
		return ExpRow{
			Label:    fmt.Sprintf("sojourn ratio input/output at p=%.1f", p),
			Paper:    "≈2× at 0.6–0.9",
			Measured: fmt.Sprintf("%.2f (out %.2f, voq %.2f)", ratio, out.MeanLatency, voq.MeanLatency),
			OK:       ok,
		}, nil
	})
	if err != nil {
		return res, err
	}
	res.Rows = rows
	res.Notes = "VOQ uses single-iteration iSLIP, comparable to the schedulers of the cited study"
	return res, nil
}

// E5StaggeredInitiation reproduces §3.4: the expected extra cut-through
// latency from one-wave-per-cycle initiation is (p/4)·(n-1)/n cycles —
// e.g. one tenth of a cycle at 40% load, "i.e. negligible".
//
// Two quantities are measured on the RTL switch:
//
//   - the paper's modeled quantity: half the number of *other* packet
//     heads arriving in a tagged head's cycle (each pairwise collision
//     delays one of the two waves by a cycle), which must match the
//     closed form tightly; and
//   - the switch's actual stage-0 slot wait, which also includes
//     contention from read waves (read priority) and so runs above the
//     first-order model at moderate load while remaining negligible.
func E5StaggeredInitiation(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E5", Title: "Staggered-initiation delay", Ref: "§3.4"}
	const n = 8
	cycles := s.slots(400_000, 4_000_000)
	perLoad, err := bench.Map(0, []float64{0.1, 0.2, 0.4}, func(_ int, p float64) ([]ExpRow, error) {
		sw, err := core.New(core.Config{Ports: n, WordBits: 16, Cells: 512, CutThrough: true})
		if err != nil {
			return nil, err
		}
		k := sw.Config().Stages
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 4004}, k)
		if err != nil {
			return nil, err
		}
		pool := cell.NewPool(k)
		sw.SetDrainRecycle(true)
		heads := make([]int, n)
		hc := make([]*cell.Cell, n)
		var seq uint64
		var collisionSum float64
		var headCount int64
		for c := int64(0); c < cycles; c++ {
			nh := cs.Heads(heads)
			for i := range hc {
				hc[i] = nil
				if heads[i] != traffic.NoArrival {
					seq++
					hc[i] = pool.New(seq, i, heads[i], 16)
				}
			}
			if nh > 0 {
				// Each of the nh tagged heads sees nh-1 others; each
				// pairwise conflict costs ½ cycle in expectation.
				collisionSum += float64(nh) * float64(nh-1) / 2
				headCount += int64(nh)
			}
			sw.Tick(hc)
			for _, d := range sw.Drain() {
				pool.Put(d.Expected)
			}
		}
		want := analytic.StaggeredInitiationDelay(p, n)
		headModel := collisionSum / float64(headCount)
		slotWait := sw.InitDelay().Mean()
		return []ExpRow{
			{
				Label:    fmt.Sprintf("§3.4 head-collision delay, p=%.1f", p),
				Paper:    fmt.Sprintf("%.4f cycles", want),
				Measured: fmt.Sprintf("%.4f cycles", headModel),
				OK:       within(headModel, want, 0.10),
			},
			{
				Label:    fmt.Sprintf("RTL stage-0 slot wait, p=%.1f", p),
				Paper:    "negligible (≈ (p/4)(n-1)/n + read contention)",
				Measured: fmt.Sprintf("%.4f cycles (%.3f of a cell time)", slotWait, slotWait/float64(k)),
				OK:       slotWait < 0.25 && slotWait >= 0.5*want,
			},
		}, nil
	})
	if err != nil {
		return res, err
	}
	for _, rows := range perLoad {
		res.Rows = append(res.Rows, rows...)
	}
	res.Notes = "the closed form counts head-vs-head collisions only; the live switch also queues writes behind prioritized read waves, roughly doubling the (still negligible) wait at moderate load"
	return res, nil
}

// E6QuantumThroughput reproduces §3.5: the quantum arithmetic (widths of
// 256–1024 bits at 5 ns give 50–200 Gb/s aggregate) and the half-quantum
// organization's full-rate operation.
func E6QuantumThroughput(s Scale) (ExpResult, error) {
	res := ExpResult{ID: "E6", Title: "Quantum and half-quantum throughput", Ref: "§3.5"}
	for _, tc := range []struct {
		bits  int
		paper string
		want  float64
	}{
		{256, "≈50 Gb/s", 51.2},
		{512, "≈100 Gb/s", 102.4},
		{1024, "≈200 Gb/s", 204.8},
	} {
		got := analytic.AggregateGbps(tc.bits, 5)
		res.Rows = append(res.Rows, ExpRow{
			Label:    fmt.Sprintf("aggregate throughput, %d-bit buffer @ 5 ns", tc.bits),
			Paper:    tc.paper,
			Measured: fmt.Sprintf("%.1f Gb/s", got),
			OK:       got == tc.want,
		})
	}
	// Half-quantum RTL: cells of n words at 100% load, zero drops.
	const n = 8
	d, err := core.NewDual(core.Config{Ports: n, WordBits: 16, Cells: 128, CutThrough: true})
	if err != nil {
		return res, err
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: n, Load: 1, Seed: 5005}, n)
	if err != nil {
		return res, err
	}
	r, err := core.Run(d, cs, s.slots(30_000, 300_000))
	if err != nil {
		return res, err
	}
	res.Rows = append(res.Rows, ExpRow{
		Label:    "half-quantum (n-word cells) utilization at full load",
		Paper:    "full rate (1 read + 1 write init/cycle)",
		Measured: fmt.Sprintf("%.3f, drops=%d", r.Utilization, r.Dropped),
		OK:       r.Utilization > 0.97 && r.Dropped == 0,
	})
	return res, nil
}

// E7ControlTrace verifies the fig. 5 control structure literally on a 2×2
// switch: a golden scenario's stage-0 control words, their delayed copies
// downstream, and the automatic cut-through timing.
func E7ControlTrace(Scale) (ExpResult, error) {
	res := ExpResult{ID: "E7", Title: "Pipelined control trace", Ref: "§3.3 fig.5"}
	sw, err := core.New(core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	if err != nil {
		return res, err
	}
	var events []core.TraceEvent
	sw.SetTracer(func(e core.TraceEvent) { events = append(events, e) })

	// Scenario: cycle 0 a cell arrives on input 0 for output 1; cycle 2 a
	// cell arrives on input 1 for output 1 (must queue behind the first).
	k := sw.Config().Stages // 4
	cellAt := map[int64][2]int{0: {0, 1}, 2: {1, 1}}
	var seq uint64
	for c := int64(0); c < int64(6*k); c++ {
		var heads []*cell.Cell
		if sd, ok := cellAt[c]; ok {
			heads = make([]*cell.Cell, 2)
			seq++
			heads[sd[0]] = cell.New(seq, sd[0], sd[1], k, 16)
		}
		sw.Tick(heads)
	}
	deps := sw.Drain()

	// Delayed-copy property over the whole trace.
	delayed := true
	for i := 1; i < len(events); i++ {
		for st := 1; st < k; st++ {
			if events[i].Ctrl[st] != events[i-1].Ctrl[st-1] {
				delayed = false
			}
		}
	}
	res.Rows = append(res.Rows, ExpRow{
		Label:    "ctrl(stage s, cycle c) = ctrl(stage s-1, cycle c-1)",
		Paper:    "identical, delayed (fig. 5)",
		Measured: fmt.Sprintf("holds over %d cycles: %v", len(events), delayed),
		OK:       delayed,
	})
	// First cell cuts through: write-through at cycle 1.
	wt := len(events) > 1 && events[1].Ctrl[0].Kind == core.OpWriteThrough
	res.Rows = append(res.Rows, ExpRow{
		Label:    "first cell upgrades to write-through at cycle 1",
		Paper:    "automatic cut-through (§3.3)",
		Measured: fmt.Sprintf("%v (%v)", wt, events[1].Ctrl[0]),
		OK:       wt,
	})
	// Second cell must be a plain write (output busy) and depart later.
	ok2 := len(deps) == 2 && deps[0].HeadOut < deps[1].HeadOut &&
		deps[0].Cell.Seq == 1 && deps[1].Cell.Seq == 2
	res.Rows = append(res.Rows, ExpRow{
		Label:    "second cell queues behind the first on output 1",
		Paper:    "FIFO per output",
		Measured: fmt.Sprintf("%d departures, in order: %v", len(deps), ok2),
		OK:       ok2,
	})
	// Both cells' data integrity on the wire.
	intact := len(deps) == 2 && deps[0].Cell.Equal(deps[0].Expected) && deps[1].Cell.Equal(deps[1].Expected)
	res.Rows = append(res.Rows, ExpRow{
		Label:    "both cells bit-exact on the outgoing link",
		Paper:    "lossless datapath",
		Measured: fmt.Sprintf("%v", intact),
		OK:       intact,
	})
	return res, nil
}
