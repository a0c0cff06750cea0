package main

import (
	"reflect"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

// swWorkload is a single switch driven by core.Runner.Step, one call per
// simulated cycle, in a closed loop.
type swWorkload struct {
	name    string
	cfg     core.Config
	traffic traffic.Config // Seed comes from -seed
	policy  string
	// winCycles is the fixed work of one window: ~0.4 ms of undisturbed
	// Runner.Step on the calibration host.
	winCycles int64
	// warm is the fixed warm-up that is part of set-up (pools filled);
	// settle the windows then run untimed to fill the buffer.
	warm   int64
	settle int
}

// lead is the cycles a driver has run when the first timed window starts.
func (w swWorkload) lead(o opts) int64 {
	return o.scaled(w.warm) + int64(o.settle(w.settle))*w.winCycles
}

func (w swWorkload) build(seed uint64) (*core.Switch, *traffic.CellStream, error) {
	sw, err := core.New(w.cfg)
	if err != nil {
		return nil, nil, err
	}
	if w.policy != "" {
		p, err := bufmgr.Parse(w.policy)
		if err != nil {
			return nil, nil, err
		}
		sw.SetBufferPolicy(p)
	}
	tc := w.traffic
	tc.Seed = seed
	cs, err := traffic.NewCellStream(tc, sw.Config().Stages)
	return sw, cs, err
}

// swTwin is one of the identical drivers of an untraced pass and what
// its run left behind.
type swTwin struct {
	sw      *core.Switch
	r       *core.Runner
	start   core.RunnerState // tallies when the first timed window started
	drive   core.RunnerState // tallies when the driven window ended
	dropped int64            // switch drops when the driven window ended
	res     core.RunResult
	runErr  error
}

// swOutcome is one untraced pass through core.Runner.
type swOutcome struct {
	pass   pass
	setupS float64
	twin   [twins]swTwin
}

// drive runs nWin timed windows on twin instances, with o.setups set-ups
// spread over them, and drains the twins.
func (w swWorkload) drive(o opts, nWin int) (*swOutcome, error) {
	warm := o.scaled(w.warm)
	total := w.lead(o) + int64(nWin)*w.winCycles
	out := &swOutcome{}
	var err error
	out.pass, out.setupS, err = rounds{
		nWin: nWin,
		setup: func(keep bool) (float64, error) {
			return onTwins(func(k int) error {
				sw, cs, err := w.build(o.seed)
				if err != nil {
					return err
				}
				r := core.NewRunner(sw, cs, total)
				for c := int64(0); c < warm; c++ {
					r.Step()
				}
				if keep {
					out.twin[k] = swTwin{sw: sw, r: r}
				}
				return nil
			})
		},
		windows: func() []func() {
			var windows [twins]func()
			for k := range windows {
				r, win := out.twin[k].r, w.winCycles
				windows[k] = func() {
					for c := int64(0); c < win; c++ {
						r.Step()
					}
				}
			}
			return windows[:]
		},
		settle: o.settle(w.settle),
		settled: func() {
			for k := range out.twin {
				out.twin[k].start = out.twin[k].r.State()
			}
		},
	}.run(o)
	if err != nil {
		return nil, err
	}
	for k := range out.twin {
		t := &out.twin[k]
		t.drive, t.dropped = t.r.State(), t.sw.DroppedCells()
		t.res, t.runErr = t.r.Result()
	}
	return out, nil
}

// check applies the output checks of a Runner workload: an op is an
// offered cell; it fails on corruption, on a conservation break or on an
// audit error, and an overflowed latency histogram fails the workload.
func (out *swOutcome) check(r *result) {
	for k := range out.twin {
		t := &out.twin[k]
		res := t.res
		r.Attempted += res.Offered
		r.Failed += res.Corrupt
		if res.Corrupt > 0 {
			r.fail("%d corrupt cells", res.Corrupt)
		}
		resident := int64(t.sw.Resident())
		if gap := res.Offered - res.Delivered - res.Dropped - resident; gap != 0 {
			if gap < 0 {
				gap = -gap
			}
			r.Failed += gap
			r.fail("conservation: offered %d != delivered %d + dropped %d + resident %d",
				res.Offered, res.Delivered, res.Dropped, resident)
		} else if t.runErr != nil {
			r.Failed++
			r.fail("runner: %v", t.runErr)
		}
		if err := t.sw.AuditInvariants(); err != nil {
			r.Failed++
			r.fail("audit: %v", err)
		}
		if res.CutLatencyOverflow != 0 {
			r.fail("cut-latency histogram overflowed %d times: quantiles are truncated", res.CutLatencyOverflow)
		}
		if k > 0 && !reflect.DeepEqual(res, out.twin[0].res) {
			r.fail("twin %d diverged on one seed:\n %+v\n %+v", k, res, out.twin[0].res)
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("no cell was offered")
	}
}

// rate is delivered cells per host second in the quietest window: the
// mean cells per window over the duration of the fastest window.
func rate(delivered int64, nWin int, fastestNS int64) float64 {
	return float64(delivered) / float64(nWin) / float64(fastestNS) * 1e9
}

// rate is the pass's quiet-window rate (the twins deliver alike).
func (out *swOutcome) rate() float64 {
	t := &out.twin[0]
	return rate(t.drive.Delivered-t.start.Delivered, out.pass.windows(), out.pass.fastest())
}

func (w swWorkload) run(o opts) (*result, error) {
	r := newResult(w.name, o, false)
	out, err := w.drive(o, o.windows(1))
	if err != nil {
		return nil, err
	}
	out.check(r)
	t := &out.twin[0]
	r.e2e("cells_per_sec", out.rate())
	r.e2e("step_latency_p50_ms", float64(quietestP50(out.pass.durs))/1e6)
	r.Samples["step_latency_p50_ms"] = int64(twins * out.pass.windows())
	r.e2e("setup_s", out.setupS)
	r.e2e("heap_peak_mb", float64(out.pass.heapPeak)/mib)
	r.e2e("sim_util", t.res.Utilization)
	r.e2e("sim_cut_latency_mean_cycles", t.res.MeanCutLatency)
	r.e2e("sim_cut_latency_p99_cycles", float64(t.sw.CutLatency().Quantile(0.99)))
	r.e2e("sim_accepted_frac", 1-float64(t.res.Dropped)/float64(t.res.Offered))
	r.e2e("ops_ok_frac", 1-float64(r.Failed)/float64(r.Attempted))
	return r, nil
}

// handLoop is Runner.Step's loop rebuilt from public calls only: traffic
// heads, pooled cells, Tick, Drain, recycle. The traced replica and the
// ladder's raw-Tick rung both drive it.
type handLoop struct {
	sw     *core.Switch
	cs     *traffic.CellStream
	pool   *cell.Pool
	heads  []int
	hcells []*cell.Cell
	width  int
	seq    uint64
	// raw skips the payload comparison, as a driver that trusts the
	// switch would.
	raw bool

	cycles, dead                int64
	offered, delivered, corrupt int64
}

func newHandLoop(sw *core.Switch, cs *traffic.CellStream) *handLoop {
	cfg := sw.Config()
	sw.SetDrainRecycle(true)
	return &handLoop{
		sw: sw, cs: cs, pool: cell.NewPool(cfg.Stages),
		heads: make([]int, cfg.Ports), hcells: make([]*cell.Cell, cfg.Ports),
		width: cfg.WordBits,
	}
}

// inject turns the heads of this cycle into pooled cells.
func (h *handLoop) inject() []*cell.Cell {
	for i := range h.hcells {
		h.hcells[i] = nil
		if h.heads[i] != traffic.NoArrival {
			h.seq++
			h.hcells[i] = h.pool.New(h.seq, i, h.heads[i], h.width)
			h.offered++
		}
	}
	return h.hcells
}

// collect verifies and recycles the departures of the last Tick.
func (h *handLoop) collect(deps []core.Departure) {
	for _, d := range deps {
		h.delivered++
		if !h.raw && !d.Cell.Equal(d.Expected) {
			h.corrupt++
		}
		h.pool.Put(d.Expected)
	}
}

// cycle advances one cycle untimed.
func (h *handLoop) cycle() {
	h.cycles++
	if h.cs.Heads(h.heads) == 0 {
		h.dead++
		h.sw.Tick(nil)
	} else {
		h.sw.Tick(h.inject())
	}
	h.collect(h.sw.Drain())
}

// Layers the driver calls in sequence, in call order.
const (
	lHeads = iota
	lNew
	lTick
	lDrain
	lPut
	nSwLayers
)

// swReplica times every layer call of the hand loop.
type swReplica struct {
	h    *handLoop
	tr   *tracer
	prof core.PhaseProf
	// last is what the window just run accumulated; quiet is the copy
	// kept from the fastest window so far.
	last, quiet struct {
		acc    [nSwLayers]layerAcc
		arb    layerAcc // arbitrate calls and their time, from prof
		cycles int64
		reads  int64 // clock reads made by the window, the profile's included
	}
	parent int64 // span the driver.cycle spans hang from
}

func (p *swReplica) window(n int64) {
	h, tr := p.h, p.tr
	var acc [nSwLayers]layerAcc
	arb0 := layerAcc{calls: p.prof.ArbCalls, ns: p.prof.ArbNS}
	for c := int64(0); c < n; c++ {
		h.cycles++
		t0 := tr.now()
		nh := h.cs.Heads(h.heads)
		t1 := tr.now()
		t2 := t1
		if nh == 0 {
			h.dead++
			h.sw.Tick(nil)
		} else {
			hc := h.inject()
			t2 = tr.now()
			acc[lNew].calls++
			acc[lNew].ns += t2 - t1
			h.sw.Tick(hc)
		}
		t3 := tr.now()
		deps := h.sw.Drain()
		t4 := tr.now()
		h.collect(deps)
		t5 := tr.now()
		acc[lHeads].ns += t1 - t0
		acc[lTick].ns += t3 - t2
		acc[lDrain].ns += t4 - t3
		acc[lPut].ns += t5 - t4
		if h.cycles%sampleEvery == 0 && tr.sampled < maxSampledCycles {
			tr.sampled++
			id := tr.add("driver.cycle", p.parent, t0, t5)
			tr.child("traffic.heads", id, t0, t1)
			if nh != 0 {
				tr.child("cell.new", id, t1, t2)
			}
			tr.child("core.tick", id, t2, t3)
			tr.child("core.drain", id, t3, t4)
			tr.child("cell.put", id, t4, t5)
		}
	}
	acc[lHeads].calls, acc[lTick].calls, acc[lDrain].calls, acc[lPut].calls = n, n, n, n
	p.last.acc, p.last.cycles = acc, n
	// The interval between arbitrate's two clock reads holds one read's
	// worth of clock cost, so it is a layerAcc like the others (pmbench
	// -phases subtracts two reads per call and so reads lower).
	p.last.arb = layerAcc{calls: p.prof.ArbCalls - arb0.calls, ns: p.prof.ArbNS - arb0.ns}
	p.last.reads = 5*n + acc[lNew].calls + 2*p.last.arb.calls
}

// tickNLoop drives a switch through TickN the way a batch-replay driver
// does: one call per arrival front and the empty cycles that follow it.
type tickNLoop struct {
	h   *handLoop
	hc  [2][]*cell.Cell
	buf int
	// pend is the front read ahead past the last gap, valid when ahead.
	pend  []*cell.Cell
	ahead bool
}

func newTickNLoop(sw *core.Switch, cs *traffic.CellStream) *tickNLoop {
	t := &tickNLoop{h: newHandLoop(sw, cs)}
	ports := sw.Config().Ports
	t.hc = [2][]*cell.Cell{make([]*cell.Cell, ports), make([]*cell.Cell, ports)}
	return t
}

// fetch advances the stream one cycle into the free head buffer; TickN
// has consumed the other one by the time it is reused.
func (t *tickNLoop) fetch() []*cell.Cell {
	h := t.h
	if h.cs.Heads(h.heads) == 0 {
		return nil
	}
	h.hcells = t.hc[t.buf]
	t.buf = 1 - t.buf
	return h.inject()
}

func (t *tickNLoop) run(cycles int64) {
	h := t.h
	for c := int64(0); c < cycles; {
		if !t.ahead {
			t.pend = t.fetch()
		}
		front := t.pend
		t.ahead = false
		g := int64(1)
		for c+g < cycles {
			if t.pend = t.fetch(); t.pend != nil {
				t.ahead = true
				break
			}
			g++
		}
		h.sw.TickN(front, g)
		h.collect(h.sw.Drain())
		c += g
	}
	h.cycles += cycles
}

func (w swWorkload) runTraced(o opts) (*result, error) {
	r := newResult(w.name, o, true)
	o.setups = 1
	nWin := o.windows(1.0 / 6)

	// Untraced reference pass: Runner.Step's own rate and the simulated
	// counts of the layers.
	out, err := w.drive(o, nWin)
	if err != nil {
		return nil, err
	}
	out.check(r)
	ref := &out.twin[0]
	refRate := out.rate()
	stepNS := float64(out.pass.fastest()) / float64(w.winCycles)

	// Traced pass: the same cycles on the same seed through the replica,
	// in windows a quarter the size because each cycle now pays five or
	// six clock reads.
	sw, cs, err := w.build(o.seed)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	rep := &swReplica{h: newHandLoop(sw, cs), tr: tr}
	lead := w.lead(o)
	for c := int64(0); c < lead; c++ {
		rep.h.cycle()
	}
	leadDelivered := rep.h.delivered
	sw.SetPhaseProf(&rep.prof)
	root := tr.open("workload", 0)
	const split = 4
	tWin := w.winCycles / split
	best := int64(-1)
	tp := timedPass(nWin*split, func(ns int64) {
		if best < 0 || ns < best {
			best, rep.quiet = ns, rep.last
		}
	}, func() {
		tr.window(root, func(id int64) {
			rep.parent = id
			rep.window(tWin)
		})
	})
	tr.close(root)
	sw.SetPhaseProf(nil)
	h := rep.h
	if h.offered != ref.drive.Offered || h.delivered != ref.drive.Delivered ||
		sw.DroppedCells() != ref.dropped || h.corrupt != 0 {
		r.fail("replica diverged from core.Runner: offered %d/%d delivered %d/%d dropped %d/%d corrupt %d",
			h.offered, ref.drive.Offered, h.delivered, ref.drive.Delivered, sw.DroppedCells(), ref.dropped, h.corrupt)
	}
	tracedRate := rate(h.delivered-leadDelivered, nWin*split, tp.fastest())

	// TickN pass: the batch-replay driver over the same cycles.
	sw2, cs2, err := w.build(o.seed)
	if err != nil {
		return nil, err
	}
	tn := newTickNLoop(sw2, cs2)
	tn.run(lead)
	np := timedPass(nWin, nil, func() { tn.run(w.winCycles) })
	if tn.h.delivered != ref.drive.Delivered {
		// TickN batches end on window edges exactly like Tick cycles do,
		// so the departure count at the end of the drive must agree.
		r.fail("TickN driver delivered %d cells, Runner %d", tn.h.delivered, ref.drive.Delivered)
	}

	q := rep.quiet
	cyc := float64(q.cycles)
	clock := clockCost(float64(best), stepNS*cyc, q.reads)
	busy := func(l int) float64 { return q.acc[l].busy(clock) }
	cellsPerCycle := float64(h.delivered) / float64(h.cycles)
	res := ref.res
	r.layer("traffic.heads_ns_per_cycle", busy(lHeads)/cyc)
	r.layer("traffic.arrivals_per_cycle", float64(h.offered)/float64(h.cycles))
	r.layer("cell.pool_ns_per_cell", (busy(lNew)+busy(lPut))/(cyc*float64(h.offered)/float64(h.cycles)))
	r.layer("cell.pool_calls", float64(h.offered+h.delivered))
	// Tick also pays the two clock reads of every profiled arbitrate call.
	tick := busy(lTick) - 2*float64(q.arb.calls)*clock
	if tick < 0 {
		tick = 0
	}
	r.layer("core.tick_ns_per_cycle", tick/cyc)
	r.layer("core.tick_ns_per_cell", tick/(cyc*cellsPerCycle))
	r.layer("core.drain_ns_per_cycle", busy(lDrain)/cyc)
	r.layer("core.tickn_ns_per_cycle", float64(np.fastest())/float64(w.winCycles))
	r.layer("core.runner_step_ns_per_cycle", stepNS)
	// What a cycle costs beyond the layers it calls: the untraced
	// quiet-window step minus the quiet-window busy time of its callees.
	r.layer("core.runner_self_ns_per_cycle",
		stepNS-(busy(lHeads)+busy(lNew)+tick+busy(lDrain)+busy(lPut))/cyc)
	r.layer("core.dead_cycle_frac", float64(h.dead)/float64(h.cycles))
	r.layer("core.allocs_per_kcycle", float64(out.pass.mallocs)/float64(twins*int64(nWin)*w.winCycles)*1000)
	var stalls int64
	for _, s := range res.InputStalls {
		stalls += s
	}
	r.layer("core.input_stall_cycles", float64(stalls))
	r.layer("core.mean_buffered", res.MeanBuffered)
	r.layer("core.max_buffered", float64(res.MaxBuffered))
	r.layer("core.init_delay_mean_cycles", res.MeanInitDelay)
	r.layer("core.arb_share", ratio(q.arb.busy(clock), tick))
	r.layer("core.arb_read_scans_per_call", ratio(float64(rep.prof.ReadScans), float64(rep.prof.ReadCalls)))
	r.layer("core.arb_write_scans_per_call", ratio(float64(rep.prof.WriteScans), float64(rep.prof.WriteCalls)))
	r.layer("bufmgr.drop_policy_cells", float64(res.DropPolicy))
	r.layer("bufmgr.drop_pushout_cells", float64(res.DropPushOut))
	r.layer("bufmgr.admit_ratio", 1-ratio(float64(res.DropPolicy), float64(res.Offered)))
	r.noise(pooled(out.pass.durs))
	r.layer("trace.overhead_frac", 1-tracedRate/refRate)
	r.layer("trace.timer_cost_ns", clock)
	return r, tr.write(o, r)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
