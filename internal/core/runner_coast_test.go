package core

import (
	"fmt"
	"reflect"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// hookedPlainStep is plainStep for a runner carrying a PreTick or a Stage:
// the hook runs before every Tick, and a staged cycle is stepStaged's, which
// never coasts.
func hookedPlainStep(r *Runner) bool {
	if r.phase == runDrive && r.Stage != nil {
		r.stepStaged()
		return true
	}
	if ticks := r.phase == runDrive || r.phase == runDrain && r.drained < r.bound && r.s.Resident() > 0; ticks && r.PreTick != nil {
		r.PreTick(r.s.cycle)
	}
	return plainStep(r)
}

// onLoan identifies the array Drain last handed out. Every Drain swaps it
// for the other of its two, so it tells a Step that drained from one that
// coasted without asking the runner.
func onLoan(r *Runner) *Departure {
	if cap(r.s.doneOut) == 0 {
		return nil
	}
	return &r.s.doneOut[:1][0]
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
		{name: "SetObserver", sees: true,
			apply: func(r *Runner, log *[]string) {
				o := NewObserver(obs.NewRegistry(), n)
				o.Tracer = obs.NewTracer(&obs.MemSink{}, 0, 1)
				r.Switch().SetObserver(o)
			},
			finish: func(r *Runner, log *[]string) {
				r.s.SyncObserver()
				o := r.s.Observer()
				*log = append(*log, fmt.Sprint(o.Tracer.Ring(), o.Delivered.Value(), o.Buffered.Value(), o.CutLatency.Snapshot()))
			}},
		{name: "SetTracer", sees: true, apply: func(r *Runner, log *[]string) {
			r.Switch().SetTracer(func(e TraceEvent) { *log = append(*log, e.String()) })
		}},
		{name: "PreTick", sees: true, apply: func(r *Runner, log *[]string) {
			r.PreTick = func(c int64) { *log = append(*log, fmt.Sprint("pretick ", c)) }
		}},
		{name: "Stage", sees: true, apply: func(r *Runner, log *[]string) {
			r.Stage = &passStage{wordBits: r.s.cfg.WordBits, log: log}
		}},
		{name: "InjectMemoryFault", apply: func(r *Runner, log *[]string) {
			r.Switch().InjectMemoryFault(3, 0, 1)
		}},
		{name: "forceExact", apply: func(r *Runner, log *[]string) { r.Switch().forceExact() }},
		{name: "SetOutputOpen", coasts: true, apply: func(r *Runner, log *[]string) {
			r.Switch().SetOutputOpen(0, false)
		}},
	}
	for _, seam := range seams {
		t.Run(seam.name, func(t *testing.T) {
			cfg := Config{Ports: n, Stages: k, WordBits: 16, Cells: 12, CutThrough: true, ECC: true}
			tc := traffic.Config{Kind: traffic.Trace, N: n, Schedule: sched}
			got, want := runnerTo(t, cfg, tc, cycles, "", 0), runnerTo(t, cfg, tc, cycles, "", 0)
			var gotLog, wantLog []string
			applied := -1
			for c := 0; ; c++ {
				loan := onLoan(got)
				ok, wok := got.Step(), hookedPlainStep(want)
				if ok != wok {
					t.Fatalf("cycle %d: Step returned %v, the plain driver %v", c, ok, wok)
				}
				compareRunners(t, c, got, want)
				if !ok {
					break
				}
				coasted := loan == onLoan(got)
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
	want := runnerTo(t, cfg, tc, cycles, "", 0)
	got := runnerTo(t, cfg, tc, cycles, "", 0)
	cuts, again, cut := 0, 0, -2
	for c := 0; ; c++ {
		loan := onLoan(got)
		ok, wok := got.Step(), plainStep(want)
		if ok != wok {
			t.Fatalf("cycle %d: Step returned %v, the plain driver %v", c, ok, wok)
		}
		if !ok {
			break
		}
		if c%97 == 0 && cap(got.s.doneOut) > 0 && loan == onLoan(got) && got.phase == runDrive {
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
		// (Not the snapshots: a rebuilt switch owns a copy of the cell in each
		// stale input row, where the uninterrupted one sees it recycled.)
		if g, w := handedOut(got), handedOut(want); !reflect.DeepEqual(g, w) {
			t.Fatalf("cycle %d: departures handed out\n got  %v\n want %v", c, g, w)
		}
		if g, w := got.State(), want.State(); g != w {
			t.Fatalf("cycle %d: RunnerState\n got  %+v\n want %+v", c, g, w)
		}
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
