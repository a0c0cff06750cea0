package main

import (
	"fmt"
	"os"
	"path/filepath"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/srv"
	"pipemem/internal/traffic"
)

// The ladder measures layers nested inside one call (HTTP → srv → ckpt →
// Runner → Tick), which no outside timer can separate within a request:
// the steady spec is run for the same cycle count through each layer's
// own entry point, one rung per layer, and what a layer adds is its rung
// minus the rung below. Every rung runs serveClients drivers at once, as
// the serve workloads do, so its rate compares with theirs.

// ladderWin is the cycles of one rung window (one 4096-cycle request).
const ladderWin = 4096

// rungDriver is one of a rung's parallel drivers. window runs on the
// driver's own goroutine; close runs on the caller's after the rung and
// reports what went wrong.
type rungDriver struct {
	window func()       // advance ladderWin cycles
	cells  func() int64 // cells delivered so far
	close  func()
}

// rungResult is a rung's quiet-window cost and rate.
type rungResult struct {
	Name        string  `json:"name"`
	NSPerCycle  float64 `json:"ns_per_cycle"`  // mean over the drivers
	CellsPerSec float64 `json:"cells_per_sec"` // summed over the drivers
}

// runRung builds serveClients drivers, warms each for warmWin windows and
// times nWin windows on all of them at once.
func runRung(tr *tracer, name string, nWin, warmWin int, mk func(i int, cycles int64) (rungDriver, error)) (rungResult, error) {
	var drivers [serveClients]rungDriver
	for i := range drivers {
		d, err := mk(i, int64(nWin+warmWin)*ladderWin)
		if err != nil {
			return rungResult{}, fmt.Errorf("rung %s: %w", name, err)
		}
		if d.close != nil {
			defer d.close()
		}
		for k := 0; k < warmWin; k++ {
			d.window()
		}
		drivers[i] = d
	}
	var windows [serveClients]func()
	var c0 [serveClients]int64
	for i, d := range drivers {
		windows[i], c0[i] = d.window, d.cells()
	}
	id := tr.open("rung."+name, 0)
	p := timedPass(nWin, nil, windows[:]...)
	tr.close(id)
	res := rungResult{Name: name}
	for i, d := range drivers {
		res.NSPerCycle += float64(fastest(p.durs[i])) / ladderWin / serveClients
		res.CellsPerSec += rate(d.cells()-c0[i], nWin, fastest(p.durs[i]))
	}
	return res, nil
}

// parts builds the switch and stream a session of cfg would run.
func parts(cfg srv.SessionConfig) (*core.Switch, *traffic.CellStream, error) {
	spec, err := cfg.Spec()
	if err != nil {
		return nil, nil, err
	}
	sw, err := core.New(spec.Switch)
	if err != nil {
		return nil, nil, err
	}
	cs, err := traffic.NewCellStream(spec.Traffic, sw.Config().Stages)
	return sw, cs, err
}

func times(n int, f func()) func() {
	return func() {
		for i := 0; i < n; i++ {
			f()
		}
	}
}

// ladder runs the rungs and derives the layer metrics from them.
func (w serveWorkload) ladder(o opts, r *result, tr *tracer) error {
	// Every rung times windows of the same length: the fastest of shorter
	// windows reads lower, and the rungs are there to be subtracted.
	nWin, warmWin := o.windows(0.06), int(o.scaled(64))
	ns := map[string]float64{} // rung name → ns/cycle
	run := func(name string, mk func(i int, cycles int64) (rungDriver, error)) error {
		res, err := runRung(tr, name, nWin, warmWin, mk)
		ns[name] = res.NSPerCycle
		r.Rungs = append(r.Rungs, res)
		return err
	}
	seed := func(i int) uint64 { return o.seed + uint64(i) }

	err := run("core.tick", func(i int, cycles int64) (rungDriver, error) {
		sw, cs, err := parts(steadySpec(cycles, seed(i)))
		if err != nil {
			return rungDriver{}, err
		}
		h := newHandLoop(sw, cs)
		h.raw = true
		return rungDriver{window: times(ladderWin, h.cycle), cells: func() int64 { return h.delivered }}, nil
	})
	if err != nil {
		return err
	}
	err = run("core.tickn", func(i int, cycles int64) (rungDriver, error) {
		sw, cs, err := parts(steadySpec(cycles, seed(i)))
		if err != nil {
			return rungDriver{}, err
		}
		t := newTickNLoop(sw, cs)
		t.h.raw = true
		return rungDriver{window: func() { t.run(ladderWin) }, cells: func() int64 { return t.h.delivered }}, nil
	})
	if err != nil {
		return err
	}
	err = run("core.runner", func(i int, cycles int64) (rungDriver, error) {
		sw, cs, err := parts(steadySpec(cycles, seed(i)))
		if err != nil {
			return rungDriver{}, err
		}
		rn := core.NewRunner(sw, cs, cycles+ladderWin)
		return rungDriver{
			window: times(ladderWin, func() { rn.Step() }),
			cells:  func() int64 { return rn.State().Delivered },
		}, nil
	})
	if err != nil {
		return err
	}
	stepN := func(observe bool) func(i int, cycles int64) (rungDriver, error) {
		return func(i int, cycles int64) (rungDriver, error) {
			spec, err := steadySpec(cycles+ladderWin, seed(i)).Spec()
			if err != nil {
				return rungDriver{}, err
			}
			var opt ckpt.Options
			if observe {
				opt.Observer = core.NewObserver(obs.NewRegistry(), spec.Switch.Ports)
			}
			sim, err := ckpt.New(spec, opt)
			if err != nil {
				return rungDriver{}, err
			}
			var stepErr error
			return rungDriver{
				window: times(ladderWin/256, func() {
					if _, _, err := sim.StepN(256); err != nil && stepErr == nil {
						stepErr = err
					}
				}),
				cells: func() int64 { return sim.Runner().State().Delivered },
				close: func() {
					if stepErr != nil {
						r.fail("rung ckpt.stepn: %v", stepErr)
					}
				},
			}, nil
		}
	}
	if err := run("ckpt.stepn", stepN(false)); err != nil {
		return err
	}
	if err := run("ckpt.stepn.obs", stepN(true)); err != nil {
		return err
	}
	mgr := srv.NewManager(srv.Options{MaxSessions: 64})
	inProc := func(batch int64) func(i int, cycles int64) (rungDriver, error) {
		return func(i int, cycles int64) (rungDriver, error) {
			cfg := steadySpec(cycles+ladderWin, seed(i))
			sess, err := mgr.Create(cfg)
			if err != nil {
				return rungDriver{}, err
			}
			var stepErr error
			return rungDriver{
				window: times(int(ladderWin/batch), func() {
					if _, err := sess.Step(batch); err != nil && stepErr == nil {
						stepErr = err
					}
				}),
				cells: func() int64 { return sess.Status().Delivered },
				close: func() {
					if stepErr != nil {
						r.fail("rung srv.step: %v", stepErr)
					}
					if err := mgr.Delete(sess.ID()); err != nil {
						r.fail("rung srv.step: %v", err)
					}
				},
			}, nil
		}
	}
	if err := run("srv.step.64", inProc(64)); err != nil {
		return err
	}
	if err := run("srv.step.4096", inProc(4096)); err != nil {
		return err
	}
	hs, err := startServer("")
	if err != nil {
		return err
	}
	overHTTP := func(batch int64) func(i int, cycles int64) (rungDriver, error) {
		return func(i int, cycles int64) (rungDriver, error) {
			c := newClient(hs.base)
			if err := c.create(steadySpec(cycles+ladderWin, seed(i))); err != nil {
				return rungDriver{}, err
			}
			url := stepURL(c, batch)
			return rungDriver{
				window: times(int(ladderWin/batch), func() { c.step(url, batch) }),
				cells:  func() int64 { return c.delivered },
				close: func() {
					c.hc.CloseIdleConnections()
					if c.firstErr != nil {
						r.fail("rung srv.http: %v", c.firstErr)
					}
					r.Attempted, r.Failed = r.Attempted+c.attempted, r.Failed+c.failed
				},
			}, nil
		}
	}
	err = run("srv.http.64", overHTTP(64))
	if err == nil {
		err = run("srv.http.4096", overHTTP(4096))
	}
	if serr := hs.stop(); err == nil {
		err = serr
	}
	if err != nil {
		return err
	}

	own := fmt.Sprintf("%d", w.batch)
	r.layer("core.tick_ns_per_cycle", ns["core.tick"])
	r.layer("core.tickn_ns_per_cycle", ns["core.tickn"])
	r.layer("core.runner_step_ns_per_cycle", ns["core.runner"])
	r.layer("core.runner_self_ns_per_cycle", ns["core.runner"]-ns["core.tick"])
	r.layer("ckpt.stepn_ns_per_cycle", ns["ckpt.stepn"])
	r.layer("ckpt.stepn_added_ns_per_cycle", ns["ckpt.stepn"]-ns["core.runner"])
	r.layer("obs.observer_added_ns_per_cycle", ns["ckpt.stepn.obs"]-ns["ckpt.stepn"])
	r.layer("srv.step_ns_per_cycle", ns["srv.step."+own])
	r.layer("srv.step_added_ns_per_cycle", ns["srv.step."+own]-ns["ckpt.stepn.obs"])
	// t(n) = call + n·cycle at two batch sizes gives the per-call part.
	r.layer("srv.step_call_overhead_us", (ns["srv.step.64"]-ns["srv.step.4096"])/(1.0/64-1.0/4096)/1e3)
	r.layer("srv.http.added_us_per_request", (ns["srv.http."+own]-ns["srv.step."+own])*float64(w.batch)/1e3)
	return nil
}

// probes times the serving layer's occasional operations, each as the
// median of a few repetitions on a warmed session.
func probes(o opts, r *result) error {
	const reps = 9
	dir, err := os.MkdirTemp(o.outDir, "probe-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	warm := o.scaled(65536)
	spec, err := steadySpec(warm+(1<<20), o.seed).Spec()
	if err != nil {
		return err
	}
	sim, err := ckpt.New(spec, ckpt.Options{})
	if err != nil {
		return err
	}
	if _, _, err := sim.StepN(warm); err != nil {
		return err
	}
	var ck *ckpt.Checkpoint
	ms, err := repeatMS(reps, func() (err error) { ck, err = sim.Checkpoint(); return err })
	if err != nil {
		return err
	}
	r.layer("ckpt.checkpoint_ms", ms)
	path := filepath.Join(dir, "probe.ckpt")
	if ms, err = repeatMS(reps, func() error { return ckpt.Save(path, ck) }); err != nil {
		return err
	}
	r.layer("ckpt.save_ms", ms)
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	r.layer("ckpt.checkpoint_bytes", float64(fi.Size()))
	ms, err = repeatMS(reps, func() error {
		loaded, err := ckpt.Load(path)
		if err != nil {
			return err
		}
		_, err = ckpt.ResumeFrom(loaded, ckpt.Options{})
		return err
	})
	if err != nil {
		return err
	}
	r.layer("ckpt.load_resume_ms", ms)

	mgr := srv.NewManager(srv.Options{MaxSessions: 4 * reps})
	var first *srv.Session
	ms, err = repeatMS(reps, func() error {
		s, err := mgr.Create(steadySpec(warm+(1<<20), o.seed))
		if first == nil {
			first = s
		}
		return err
	})
	if err != nil {
		return err
	}
	r.layer("srv.create_ms", ms)
	if _, err := first.Step(warm); err != nil {
		return err
	}
	ms, err = repeatMS(reps, func() error { _, err := mgr.Fork(first.ID(), ""); return err })
	if err != nil {
		return err
	}
	r.layer("srv.fork_ms", ms)
	return nil
}
