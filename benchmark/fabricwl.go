package main

import (
	"runtime"

	"pipemem/internal/core"
	"pipemem/internal/fabric"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/traffic"
)

// fabricWorkload drives a butterfly of pipelined-memory switches the way
// fabric.Run does: terminal heads, Inject per head, one Step per cycle.
type fabricWorkload struct {
	name      string
	cfg       fabric.Config
	traffic   traffic.Config // N and Seed are filled in
	winCycles int64          // ~0.4 ms of undisturbed stepping
	// warm is the fixed warm-up that is part of set-up; settle the windows
	// then run untimed to fill the fabric.
	warm   int64
	settle int
}

// lead is the cycles a driver has run when the first timed window starts.
func (w fabricWorkload) lead(o opts) int64 {
	return o.scaled(w.warm) + int64(o.settle(w.settle))*w.winCycles
}

// fabricLoop is fabric.Run's loop, kept so that it can be advanced a
// window at a time.
type fabricLoop struct {
	f     *fabric.Net
	cs    *traffic.CellStream
	heads []int
	seq   uint64
	err   error // first Step error
}

func (w fabricWorkload) build(seed uint64, workers int) (*fabricLoop, error) {
	cfg := w.cfg
	cfg.Workers = workers
	f, err := fabric.New(cfg)
	if err != nil {
		return nil, err
	}
	tc := w.traffic
	tc.N, tc.Seed = cfg.Terminals, seed
	cs, err := traffic.NewCellStream(tc, f.CellWords())
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fabricLoop{f: f, cs: cs, heads: make([]int, cfg.Terminals)}, nil
}

func (l *fabricLoop) inject() {
	for term, dst := range l.heads {
		if dst != traffic.NoArrival {
			l.seq++
			l.f.Inject(term, dst, l.seq)
		}
	}
}

func (l *fabricLoop) run(cycles int64) {
	for c := int64(0); c < cycles; c++ {
		l.cs.Heads(l.heads)
		l.inject()
		if err := l.f.Step(); err != nil && l.err == nil {
			l.err = err
		}
	}
}

// fabricOutcome is one untraced pass over twin fabrics.
type fabricOutcome struct {
	pass          pass
	setupS        float64
	twin          [twins]*fabricLoop
	leadDelivered int64 // cells delivered when the first timed window started
}

func (out *fabricOutcome) close() {
	for _, l := range out.twin {
		if l != nil {
			l.f.Close()
		}
	}
}

// drive runs nWin timed windows on twin fabrics, with o.setups set-ups
// spread over them.
func (w fabricWorkload) drive(o opts, nWin, workers int) (*fabricOutcome, error) {
	warm := o.scaled(w.warm)
	out := &fabricOutcome{}
	var err error
	out.pass, out.setupS, err = rounds{
		nWin: nWin,
		setup: func(keep bool) (float64, error) {
			return onTwins(func(k int) error {
				l, err := w.build(o.seed, workers)
				if err != nil {
					return err
				}
				l.run(warm)
				if keep {
					out.twin[k] = l
				} else {
					l.f.Close()
				}
				return nil
			})
		},
		windows: func() []func() {
			var windows [twins]func()
			for k := range windows {
				l := out.twin[k]
				windows[k] = func() { l.run(w.winCycles) }
			}
			return windows[:]
		},
		settle:  o.settle(w.settle),
		settled: func() { out.leadDelivered = out.twin[0].f.Delivered() },
	}.run(o)
	if err != nil {
		out.close()
		return nil, err
	}
	return out, nil
}

// check applies the fabric's output checks: an op is an injected cell; a
// bad eject, a corrupt cell or an audit error fails.
func (out *fabricOutcome) check(r *result) {
	for k, l := range out.twin {
		f := l.f
		r.Attempted += f.Injected()
		if n := f.Corrupt(); n > 0 {
			r.Failed += n
			r.fail("%d corrupt or misrouted cells", n)
		}
		if l.err != nil {
			r.Failed++
			r.fail("step: %v", l.err)
		}
		if err := f.Audit(); err != nil {
			r.Failed++
			r.fail("audit: %v", err)
		}
		if n := f.LatencyOverflow(); n != 0 {
			r.fail("latency histogram overflowed %d times: quantiles are truncated", n)
		}
		if f0 := out.twin[0].f; k > 0 && (f.Injected() != f0.Injected() || f.Delivered() != f0.Delivered() ||
			f.Drops() != f0.Drops() || f.Latency().Mean() != f0.Latency().Mean()) {
			r.fail("twin %d diverged on one seed: injected %d/%d delivered %d/%d drops %d/%d",
				k, f.Injected(), f0.Injected(), f.Delivered(), f0.Delivered(), f.Drops(), f0.Drops())
		}
	}
	if r.Attempted < 1 {
		r.Attempted = 1
		r.fail("no cell was injected")
	}
}

// rate is the pass's quiet-window rate (the twins deliver alike).
func (out *fabricOutcome) rate() float64 {
	return rate(out.twin[0].f.Delivered()-out.leadDelivered, out.pass.windows(), out.pass.fastest())
}

func (w fabricWorkload) run(o opts) (*result, error) {
	r := newResult(w.name, o, false)
	out, err := w.drive(o, o.windows(1), w.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer out.close()
	out.check(r)
	f := out.twin[0].f
	r.e2e("cells_per_sec", out.rate())
	r.e2e("step_latency_p50_ms", float64(quietestP50(out.pass.durs))/1e6)
	r.Samples["step_latency_p50_ms"] = int64(twins * out.pass.windows())
	r.e2e("setup_s", out.setupS)
	r.e2e("heap_peak_mb", float64(out.pass.heapPeak)/mib)
	r.e2e("sim_util", float64(f.Delivered()*int64(f.CellWords()))/float64(f.Cycle()*int64(w.cfg.Terminals)))
	r.e2e("sim_cut_latency_mean_cycles", f.Latency().Mean())
	r.e2e("sim_cut_latency_p99_cycles", float64(f.Latency().Quantile(0.99)))
	r.e2e("sim_accepted_frac", 1-float64(f.Drops())/float64(f.Injected()))
	r.e2e("ops_ok_frac", 1-float64(r.Failed)/float64(r.Attempted))
	return r, nil
}

// Layers the fabric driver calls in sequence.
const (
	fHeads = iota
	fInject
	fStep
	nFabLayers
)

// fabReplica times every layer call of the fabric loop.
type fabReplica struct {
	l    *fabricLoop
	tr   *tracer
	step engine.StepProf
	// last is what the window just run accumulated; quiet is the copy
	// kept from the fastest window so far.
	last, quiet struct {
		acc     [nFabLayers]layerAcc
		step    engine.StepProf
		cycles  int64
		injects int64
	}
	cycles   int64
	inFlight int64 // summed per cycle, for the mean
	parent   int64
}

func (p *fabReplica) window(n int64) {
	l, tr := p.l, p.tr
	var acc [nFabLayers]layerAcc
	step0, inj0 := p.step, l.f.Injected()
	for c := int64(0); c < n; c++ {
		p.cycles++
		t0 := tr.now()
		l.cs.Heads(l.heads)
		t1 := tr.now()
		l.inject()
		t2 := tr.now()
		if err := l.f.Step(); err != nil && l.err == nil {
			l.err = err
		}
		t3 := tr.now()
		acc[fHeads].ns += t1 - t0
		acc[fInject].ns += t2 - t1
		acc[fStep].ns += t3 - t2
		p.inFlight += int64(l.f.Engine().InFlight())
		if p.cycles%sampleEvery == 0 && tr.sampled < maxSampledCycles {
			tr.sampled++
			id := tr.add("driver.cycle", p.parent, t0, t3)
			tr.child("traffic.heads", id, t0, t1)
			tr.child("engine.inject", id, t1, t2)
			tr.child("engine.step", id, t2, t3)
		}
	}
	acc[fHeads].calls, acc[fInject].calls, acc[fStep].calls = n, n, n
	p.last.acc, p.last.cycles = acc, n
	p.last.injects = l.f.Injected() - inj0
	p.last.step = engine.StepProf{
		NodeStepNS: p.step.NodeStepNS - step0.NodeStepNS, MergeNS: p.step.MergeNS - step0.MergeNS,
		InjectNS: p.step.InjectNS - step0.InjectNS,
		Cycles:   p.step.Cycles - step0.Cycles, Injects: p.step.Injects - step0.Injects,
	}
}

func (w fabricWorkload) runTraced(o opts) (*result, error) {
	r := newResult(w.name, o, true)
	o.setups = 1
	nWin := o.windows(1.0 / 4)

	ref, err := w.drive(o, nWin, w.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer ref.close()
	ref.check(r)
	refRate, ref0 := ref.rate(), ref.twin[0].f

	// Traced pass: the same cycles on the same seed with every layer call
	// timed and the engine's own step and arbitration profiles attached.
	l, err := w.build(o.seed, w.cfg.Workers)
	if err != nil {
		return nil, err
	}
	defer l.f.Close()
	l.run(w.lead(o))
	leadDelivered := l.f.Delivered()
	tr := newTracer()
	rep := &fabReplica{l: l, tr: tr}
	eng := l.f.Engine()
	eng.SetStepProf(&rep.step)
	profs := eng.AttachPhaseProfs()
	root := tr.open("workload", 0)
	best := int64(-1)
	tp := timedPass(nWin, func(ns int64) {
		if best < 0 || ns < best {
			best, rep.quiet = ns, rep.last
		}
	}, func() {
		tr.window(root, func(id int64) {
			rep.parent = id
			rep.window(w.winCycles)
		})
	})
	tr.close(root)
	eng.SetStepProf(nil)
	if l.f.Injected() != ref0.Injected() || l.f.Delivered() != ref0.Delivered() || l.f.Drops() != ref0.Drops() {
		r.fail("traced fabric diverged from the untraced one: injected %d/%d delivered %d/%d drops %d/%d",
			l.f.Injected(), ref0.Injected(), l.f.Delivered(), ref0.Delivered(), l.f.Drops(), ref0.Drops())
	}
	tracedRate := rate(l.f.Delivered()-leadDelivered, nWin, tp.fastest())

	q := rep.quiet
	cyc := float64(q.cycles)
	var arb core.PhaseProf
	for _, pp := range profs {
		arb.Add(pp)
	}
	// Clock reads per cycle inside Step: the step profile's three and two
	// per arbitrate call; each Inject makes two more.
	stepReads := 3 + 2*float64(arb.ArbCalls)/float64(rep.cycles)
	reads := int64((nFabLayers+stepReads)*cyc) + 2*q.injects
	clock := clockCost(float64(best), float64(ref.pass.fastest()), reads)
	busy := func(i int) float64 { return q.acc[i].busy(clock) }
	r.layer("traffic.heads_ns_per_cycle", busy(fHeads)/cyc)
	r.layer("traffic.arrivals_per_cycle", float64(l.f.Injected())/float64(l.f.Cycle()))
	r.layer("engine.inject_ns_per_cell", ratio(busy(fInject)-2*float64(q.injects)*clock, float64(q.injects)))
	r.layer("engine.step_ns_per_cycle", busy(fStep)/cyc-stepReads*clock)
	sp := q.step
	attributed := float64(sp.NodeStepNS + sp.MergeNS + sp.InjectNS)
	r.layer("engine.node_step_share", ratio(float64(sp.NodeStepNS), attributed))
	r.layer("engine.merge_share", ratio(float64(sp.MergeNS), attributed))
	r.layer("engine.inject_share", ratio(float64(sp.InjectNS), attributed))
	r.layer("engine.arb_share_of_node_step", ratio(layerAcc{calls: arb.ArbCalls, ns: arb.ArbNS}.busy(clock), float64(rep.step.NodeStepNS)))
	r.layer("core.arb_read_scans_per_call", ratio(float64(arb.ReadScans), float64(arb.ReadCalls)))
	r.layer("core.arb_write_scans_per_call", ratio(float64(arb.WriteScans), float64(arb.WriteCalls)))
	// Aggregate switching rate: every delivered cell crossed one node per stage.
	r.layer("engine.node_cells_per_sec", refRate*float64(l.f.Stages()))
	r.layer("engine.allocs_per_kcycle", float64(ref.pass.mallocs)/float64(twins*int64(nWin)*w.winCycles)*1000)
	r.layer("engine.in_flight_mean", float64(rep.inFlight)/float64(rep.cycles))
	r.layer("engine.interior_drops", float64(l.f.InteriorDrops()))

	// Workers=2 needs a second processor to mean anything.
	if runtime.NumCPU() >= 2 {
		w2, err := w.drive(o, nWin, 2)
		if err != nil {
			return nil, err
		}
		if d := w2.twin[0].f.Delivered(); d != ref0.Delivered() {
			r.fail("workers=2 delivered %d cells, workers=1 %d", d, ref0.Delivered())
		}
		r.layer("engine.workers2_speedup", w2.rate()/refRate)
		r.Samples["engine.workers2_speedup.nproc"] = int64(runtime.NumCPU())
		w2.close()
	}
	r.noise(pooled(ref.pass.durs))
	r.layer("trace.overhead_frac", 1-tracedRate/refRate)
	r.layer("trace.timer_cost_ns", clock)
	return r, tr.write(o, r)
}
