package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// plainStep is the frozen per-cycle driver Runner.Step is held against:
// core.Run's loop one cycle at a time — Heads, Tick and Drain on every
// cycle, whatever the stream or the switch could have said ahead of time —
// with a fresh cell for every head and none recycled. It takes no shortcut
// of any kind, so a Step that does must still leave every byte where this
// leaves it, whatever becomes of the cells the runner hands back. It drives
// a runner built by plainRunner, whose departures reach Drain.
func plainStep(r *Runner) bool {
	switch r.phase {
	case runDrive:
		if r.cs.Heads(r.heads) == 0 {
			r.s.Tick(nil)
		} else {
			for i, dst := range r.heads {
				r.hcells[i] = nil
				if dst != traffic.NoArrival {
					r.seq++
					r.hcells[i] = cell.New(r.seq, i, dst, r.s.k, r.s.cfg.WordBits)
					r.res.Offered++
				}
			}
			r.s.Tick(r.hcells)
		}
		plainCollect(r)
		r.occSum += float64(r.s.Buffered())
		r.driven++
		if r.driven >= r.cycles {
			r.res.MeanBuffered = r.occSum / float64(r.cycles)
			r.phase = runDrain
		}
		return true
	case runDrain:
		if r.drained >= r.bound || r.s.Resident() == 0 {
			r.phase = runDone
			return false
		}
		r.s.Tick(nil)
		plainCollect(r)
		r.drained++
		return true
	}
	return false
}

func plainCollect(r *Runner) {
	for _, d := range r.s.Drain() {
		r.deliver(d.HeadOut-d.HeadIn, d.Cell.Equal(d.Expected))
	}
	if b := r.s.Buffered(); b > r.res.MaxBuffered {
		r.res.MaxBuffered = b
	}
}

// plainRunner is runnerTo for the reference side of a Step differential:
// the switch keeps no departure sink, so its departures are Departure
// records that plainStep drains and books one by one with tally.deliver,
// comparing each observed cell with the injected one.
func plainRunner(t *testing.T, cfg Config, tc traffic.Config, cycles int64, polSpec string) *Runner {
	t.Helper()
	r := runnerTo(t, cfg, tc, cycles, polSpec, 0)
	r.s.sink = nil
	return r
}

// scribble overwrites every idle cell of a runner's pool, keeping the
// pool's order, so that a switch or a snapshot still reading a cell the
// runner has recycled reads garbage.
func scribble(r *Runner) {
	idle := make([]*cell.Cell, r.pool.Len())
	for i := range idle {
		idle[i] = r.pool.Get()
		c := idle[i]
		c.Seq, c.Src, c.Dst, c.VC, c.Copies, c.Enqueue = ^uint64(0), -1, -1, -1, []int{-1}, -1
		for j := range c.Words {
			c.Words[j] = 0xdead
		}
	}
	for i := len(idle) - 1; i >= 0; i-- {
		r.pool.Put(idle[i])
	}
}

// holeySchedule is a Trace schedule of rows cell times in which arrivals
// come in short clumps separated by holes of one to five whole cell times.
func holeySchedule(n, rows int) [][]int {
	sched := make([][]int, rows)
	for s := range sched {
		row := make([]int, n)
		for i := range row {
			row[i] = traffic.NoArrival
		}
		if s%7 < 2 {
			row[s%n] = (s / 3) % n
			if s%14 == 0 {
				row[(s+1)%n] = (s / 5) % n
			}
		}
		sched[s] = row
	}
	return sched
}

// stepTraffic is the arrival side of the Step differentials: the sparse
// processes a coasting Step lives on, a schedule with holes, and a loaded
// hotspot where it must never engage.
func stepTraffic(n, k int, cycles int64) []traffic.Config {
	return []traffic.Config{
		{Kind: traffic.Bursty, N: n, Load: 0.05, BurstLen: 8, Seed: 11},
		{Kind: traffic.Bernoulli, N: n, Load: 0.02, Seed: 12},
		{Kind: traffic.Bernoulli, N: n, Load: 0.2, Seed: 13},
		{Kind: traffic.Trace, N: n, Schedule: holeySchedule(n, int(cycles)/k-40)},
		{Kind: traffic.Permutation, N: n, Load: 0.1, Seed: 14},
		{Kind: traffic.Hotspot, N: n, Load: 0.9, HotFrac: 0.5, Seed: 15},
	}
}

// stepModes is the switch side: cut-through, store-and-forward, pipelined
// links.
var stepModes = []struct {
	name string
	ct   bool
	lp   int
}{{"ct", true, 0}, {"sf", false, 0}, {"lp2", true, 2}}

// TestRunnerStepEqualsPlainDriver drives Runner.Step beside the plain
// per-cycle driver and, after every cycle of the window and of the drain,
// compares what the Step returned, the RunnerState (the deliveries its sink
// booked against those the driver drained), the switch snapshot and the
// stream state, and requires that the runner left nothing for Drain.
// Everything a checkpoint could cut, at every cycle it could cut it — with
// the runner's recycled cells scribbled over first, so a switch that reads
// a cell it has handed back shows here.
func TestRunnerStepEqualsPlainDriver(t *testing.T) {
	const n, cycles = 4, 4096
	for _, tc := range stepTraffic(n, 2*n, cycles) {
		for _, pol := range []string{"", "dt:alpha=2"} {
			for _, m := range stepModes {
				name := fmt.Sprintf("%v-%.2f/policy=%q/%s", tc.Kind, tc.Load, pol, m.name)
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					cfg := Config{Ports: n, WordBits: 16, Cells: 12, CutThrough: m.ct, LinkPipeline: m.lp}
					got := runnerTo(t, cfg, tc, cycles, pol, 0)
					want := plainRunner(t, cfg, tc, cycles, pol)
					for c := 0; ; c++ {
						ok, wok := got.Step(), plainStep(want)
						if ok != wok {
							t.Fatalf("cycle %d: Step returned %v, the plain driver %v", c, ok, wok)
						}
						compareRunners(t, c, got, want)
						if !ok {
							break
						}
					}
					if got.res.Delivered == 0 {
						t.Fatal("nothing delivered")
					}
				})
			}
		}
	}
}

// compareRunners fails the test unless the two runners — switch, stream and
// driver state — are indistinguishable after cycle c, and got, which books
// its departures through the switch's sink, left none for Drain. got's idle
// pooled cells are scribbled over first (scribble).
func compareRunners(t *testing.T, c int, got, want *Runner) {
	t.Helper()
	if n := len(got.s.done); n > 0 {
		t.Fatalf("cycle %d: the runner left %d departures for Drain", c, n)
	}
	scribble(got)
	if g, w := got.State(), want.State(); g != w {
		t.Fatalf("cycle %d: RunnerState\n got  %+v\n want %+v", c, g, w)
	}
	gs, err := got.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	ws, err := want.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// (The 4096 latency buckets are compared outside reflect: they are most
	// of a small switch's snapshot, and this runs twice a cycle.)
	if !slices.Equal(gs.CutLatency.Buckets, ws.CutLatency.Buckets) {
		t.Fatalf("cycle %d: cut-latency histograms differ", c)
	}
	gs.CutLatency.Buckets, ws.CutLatency.Buckets = nil, nil
	if !reflect.DeepEqual(gs, ws) {
		t.Fatalf("cycle %d: switch snapshot\n got  %+v\n want %+v", c, gs, ws)
	}
	gt, err := got.cs.State()
	if err != nil {
		t.Fatal(err)
	}
	wt, err := want.cs.State()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gt, wt) {
		t.Fatalf("cycle %d: stream state\n got  %+v\n want %+v", c, gt, wt)
	}
}
