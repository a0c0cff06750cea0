package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// hookedPlainStep is plainStep for a runner carrying a PreTick or a Stage:
// the hook runs before every Tick, and a staged cycle is stepStaged's, which
// never coasts, followed by plainStep's Drain.
func hookedPlainStep(r *Runner) bool {
	if r.phase == runDrive && r.Stage != nil {
		r.stepStaged()
		plainCollect(r)
		return true
	}
	if ticks := r.phase == runDrive || r.phase == runDrain && r.drained < r.bound && r.s.Resident() > 0; ticks && r.PreTick != nil {
		r.PreTick(r.s.cycle)
	}
	return plainStep(r)
}

// stepCoasted steps r and reports what Step returned and whether the Step
// coasted. Every Step that ticks the switch samples its occupancy
// (Runner.occupancy), and a coast calls nothing, so for the one Step the
// probe parks MaxBuffered on -1, a value no sample leaves, and then puts
// the larger of the two back.
func stepCoasted(r *Runner) (ok, coasted bool) {
	peak := r.res.MaxBuffered
	r.res.MaxBuffered = -1
	ok = r.Step()
	coasted = r.res.MaxBuffered == -1
	r.res.MaxBuffered = max(peak, r.res.MaxBuffered)
	return ok, coasted
}

// passStage is a HeadStage that holds nothing: what is offered in a cycle
// enters the switch in that cycle. It records the cycles it was ticked in.
type passStage struct {
	wordBits int
	offered  []offer
	log      *[]string
}

type offer struct {
	in, dst int
	seq     uint64
}

func (p *passStage) Offer(in int, seq uint64, dst int) {
	p.offered = append(p.offered, offer{in, dst, seq})
}

func (p *passStage) Tick(cycle int64, heads []*cell.Cell, pool *cell.Pool) {
	*p.log = append(*p.log, fmt.Sprint("stage ", cycle))
	clear(heads)
	for _, o := range p.offered {
		heads[o.in] = pool.New(o.seq, o.in, o.dst, p.wordBits)
	}
	p.offered = p.offered[:0]
}

func (p *passStage) Held() int     { return 0 }
func (p *passStage) Failed() int64 { return 0 }

// TestCoastEndsAtEverySeam applies, between two coasting Steps, each call
// that makes the next cycle somebody's business — to the runner under test
// and to the plain per-cycle driver alike — and requires the two to stay
// indistinguishable at every cycle from there on, what the seam itself saw
// included. Nothing outside the runner may be skipped past.
func TestCoastEndsAtEverySeam(t *testing.T) {
	const n, k, cycles = 4, 8, 640
	// observe installs an observer on r's switch, observerSaw renders what
	// it holds once synced: the whole exposition, and the event ring.
	regs := map[*Runner]*obs.Registry{}
	observe := func(r *Runner, events bool) {
		regs[r] = obs.NewRegistry()
		o := NewObserver(regs[r], n)
		if events {
			o.Tracer = obs.NewTracer(&obs.MemSink{}, 0, 1)
		}
		r.Switch().SetObserver(o)
	}
	observerSaw := func(r *Runner, log *[]string) {
		r.s.SyncObserver()
		var b strings.Builder
		if err := regs[r].WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		*log = append(*log, b.String(), fmt.Sprint(r.s.Observer().Tracer.Ring()))
	}
	// Two cell times of arrivals, then ten without: the switch empties and
	// the ring retires long before the next clump.
	sched := make([][]int, 70)
	for s := range sched {
		sched[s] = []int{traffic.NoArrival, traffic.NoArrival, traffic.NoArrival, traffic.NoArrival}
		if s%12 < 2 {
			sched[s][s%n], sched[s][(s+2)%n] = (s/2)%n, 0
		}
	}
	seams := []struct {
		name string
		// coasts: the seam leaves the next cycle nobody's business. sees: it
		// is called every cycle from then on, and must have been.
		coasts, sees bool
		apply        func(r *Runner, log *[]string)
		// finish renders what the seam saw once the run is over.
		finish func(r *Runner, log *[]string)
	}{
		// An observer counts events, and an idle cycle has none: metrics
		// alone or with the event stream, it is owed no cycle.
		{name: "SetObserver", coasts: true, sees: true,
			apply:  func(r *Runner, log *[]string) { observe(r, false) },
			finish: observerSaw},
		{name: "SetObserver+events", coasts: true, sees: true,
			apply:  func(r *Runner, log *[]string) { observe(r, true) },
			finish: observerSaw},
		{name: "SetTracer", sees: true, apply: func(r *Runner, log *[]string) {
			r.Switch().SetTracer(func(e TraceEvent) { *log = append(*log, e.String()) })
		}},
		{name: "PreTick", sees: true, apply: func(r *Runner, log *[]string) {
			r.PreTick = func(c int64) { *log = append(*log, fmt.Sprint("pretick ", c)) }
		}},
		{name: "Stage", sees: true, apply: func(r *Runner, log *[]string) {
			r.Stage = &passStage{wordBits: r.s.cfg.WordBits, log: log}
		}},
		// An upset on an idle switch reaches no wave: the next is still
		// nobody's business.
		{name: "InjectMemoryFault", coasts: true, apply: func(r *Runner, log *[]string) {
			r.Switch().InjectMemoryFault(3, 0, 1)
		}},
		{name: "SetOutputOpen", coasts: true, apply: func(r *Runner, log *[]string) {
			r.Switch().SetOutputOpen(0, false)
		}},
	}
	for _, seam := range seams {
		t.Run(seam.name, func(t *testing.T) {
			cfg := Config{Ports: n, Stages: k, WordBits: 16, Cells: 12, CutThrough: true, ECC: true}
			tc := traffic.Config{Kind: traffic.Trace, N: n, Schedule: sched}
			got, want := runnerTo(t, cfg, tc, cycles, "", 0), plainRunner(t, cfg, tc, cycles, "")
			var gotLog, wantLog []string
			applied := -1
			for c := 0; ; c++ {
				ok, coasted := stepCoasted(got)
				if wok := hookedPlainStep(want); ok != wok {
					t.Fatalf("cycle %d: Step returned %v, the plain driver %v", c, ok, wok)
				}
				compareRunners(t, c, got, want)
				if !ok {
					break
				}
				switch {
				case applied < 0 && c > 200 && coasted:
					seam.apply(got, &gotLog)
					seam.apply(want, &wantLog)
					applied = c
				case applied >= 0 && applied == c-1 && coasted != seam.coasts:
					t.Fatalf("cycle %d, the first after the call: coasted = %v", c, coasted)
				}
			}
			if applied < 0 {
				t.Fatal("the run never coasted")
			}
			if seam.finish != nil {
				seam.finish(got, &gotLog)
				seam.finish(want, &wantLog)
			}
			if !reflect.DeepEqual(gotLog, wantLog) {
				t.Fatalf("the seam saw\n got  %v\n want %v", gotLog, wantLog)
			}
			if seam.sees && len(gotLog) == 0 {
				t.Fatal("the seam saw nothing")
			}
		})
	}
}

// TestRestoredRunnerCoastsAgain cuts a run in the middle of a coast. Nothing
// in the three states says so; the rebuilt runner ticks once, finds the
// switch idle for itself and coasts on, to the uninterrupted run's bytes.
func TestRestoredRunnerCoastsAgain(t *testing.T) {
	const cycles = 4096
	cfg := Config{Ports: 4, WordBits: 16, Cells: 12, CutThrough: true}
	tc := traffic.Config{Kind: traffic.Bursty, N: 4, Load: 0.05, BurstLen: 8, Seed: 11}
	want := plainRunner(t, cfg, tc, cycles, "")
	got := runnerTo(t, cfg, tc, cycles, "", 0)
	cuts, again, cut := 0, 0, -2
	for c := 0; ; c++ {
		ok, coasted := stepCoasted(got)
		if wok := plainStep(want); ok != wok {
			t.Fatalf("cycle %d: Step returned %v, the plain driver %v", c, ok, wok)
		}
		if !ok {
			break
		}
		if c%97 == 0 && coasted && got.phase == runDrive {
			// Mid-coast: rebuild switch, stream and runner from their states.
			sw, err := got.s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			st, err := got.cs.State()
			if err != nil {
				t.Fatal(err)
			}
			s2, err := NewFromSnapshot(mustJSONRoundTrip(t, sw))
			if err != nil {
				t.Fatal(err)
			}
			cs2, err := traffic.RestoreCellStream(tc, s2.k, st)
			if err != nil {
				t.Fatal(err)
			}
			r2 := NewRunner(s2, cs2, cycles)
			if err := r2.RestoreState(got.State()); err != nil {
				t.Fatal(err)
			}
			if r2.coast {
				t.Fatal("a rebuilt runner remembers a verdict it never reached")
			}
			got = r2
			cuts++
			cut = c
		} else if c == cut+1 {
			// One Step on, the verdict is the rebuilt switch's own.
			if got.coast != got.s.idle() {
				t.Fatalf("cycle %d: coast = %v on a switch with idle() = %v", c, got.coast, got.s.idle())
			}
			if got.coast {
				again++
			}
		}
		compareRunners(t, c, got, want)
	}
	if cuts < 5 || again < cuts/2 {
		t.Fatalf("%d cuts fell inside a coast, %d coasted again at once", cuts, again)
	}
	g, err := got.Result()
	if err != nil {
		t.Fatal(err)
	}
	if w, _ := want.Result(); !reflect.DeepEqual(g, w) {
		t.Fatalf("result\n got  %+v\n want %+v", g, w)
	}
}

// TestObservedRunnerCoasts: a sparse run (bursty, load 0.05) with an
// observer installed coasts on exactly the cycles the bare run coasts on,
// ends with a bit-identical RunResult, and publishes, synced every 4096
// cycles and at the end, the exposition and events of the same observed run
// pinned to per-cycle stepping by a PreTick that does nothing.
func TestObservedRunnerCoasts(t *testing.T) {
	const cycles = 20_000
	cfg := Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	tc := traffic.Config{Kind: traffic.Bursty, N: 8, Load: 0.05, BurstLen: 8, Seed: 42}
	observed := func(r *Runner) *obs.Registry {
		reg := obs.NewRegistry()
		o := NewObserver(reg, cfg.Ports)
		o.Tracer = obs.NewTracer(&obs.MemSink{}, 0, 1)
		r.s.SetObserver(o)
		return reg
	}
	bare := runnerTo(t, cfg, tc, cycles, "", 0)
	got := runnerTo(t, cfg, tc, cycles, "", 0)
	pinned := runnerTo(t, cfg, tc, cycles, "", 0)
	gotReg, pinnedReg := observed(got), observed(pinned)
	pinned.PreTick = func(int64) {}
	var gotExpo, pinnedExpo strings.Builder
	publish := func() {
		for _, p := range []struct {
			r   *Runner
			reg *obs.Registry
			b   *strings.Builder
		}{{got, gotReg, &gotExpo}, {pinned, pinnedReg, &pinnedExpo}} {
			p.r.s.SyncObserver()
			if err := p.reg.WritePrometheus(p.b); err != nil {
				t.Fatal(err)
			}
		}
	}
	coasts := 0
	for c := 1; ; c++ {
		ok, bareCoasted := stepCoasted(bare)
		gok, gotCoasted := stepCoasted(got)
		pok := pinned.Step()
		if ok != gok || ok != pok {
			t.Fatalf("cycle %d: Step returned %v bare, %v observed, %v pinned", c, ok, gok, pok)
		}
		if !ok {
			break
		}
		if bareCoasted != gotCoasted {
			t.Fatalf("cycle %d: the bare run coasted %v, the observed one %v", c, bareCoasted, gotCoasted)
		}
		if gotCoasted {
			coasts++
		}
		if c%4096 == 0 {
			publish()
		}
	}
	if coasts < cycles/2 {
		t.Fatalf("%d of %d cycles coasted", coasts, cycles)
	}
	want, err := bare.Result()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range []*Runner{got, pinned} {
		res, err := r.Result()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(res, want) {
			t.Fatalf("observed result\n got  %+v\n want %+v", res, want)
		}
	}
	publish()
	if gotExpo.String() != pinnedExpo.String() {
		t.Fatalf("the coasting run published\n%s\nthe per-cycle run\n%s", gotExpo.String(), pinnedExpo.String())
	}
	if o := got.s.Observer(); o.Delivered.Value() != want.Delivered {
		t.Fatalf("observer delivered %d, run %d", o.Delivered.Value(), want.Delivered)
	}
	if g, p := got.s.Observer().Tracer.Ring(), pinned.s.Observer().Tracer.Ring(); len(g) == 0 || !reflect.DeepEqual(g, p) {
		t.Fatalf("event rings differ: %d events coasting, %d per cycle", len(g), len(p))
	}
}
