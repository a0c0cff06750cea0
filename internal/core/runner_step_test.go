package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pipemem/internal/traffic"
)

// plainStep is the frozen per-cycle driver Runner.Step is held against:
// core.Run's loop one cycle at a time — Heads, Tick and Drain on every
// cycle, whatever the stream or the switch could have said ahead of time —
// with the runner's cell recycling, because a recycled cell shows in the
// stale input rows of a snapshot. It takes no shortcut of any kind, so a
// Step that does must still leave every byte where this leaves it.
func plainStep(r *Runner) bool {
	switch r.phase {
	case runDrive:
		if r.cs.Heads(r.heads) == 0 {
			r.s.Tick(nil)
		} else {
			r.reclaim()
			for i, dst := range r.heads {
				r.hcells[i] = nil
				if dst != traffic.NoArrival {
					r.seq++
					r.hcells[i] = r.pool.New(r.seq, i, dst, r.s.cfg.WordBits)
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
	deps := r.s.Drain()
	if len(deps) > 0 {
		r.book(deps)
	}
	if b := r.s.Buffered(); b > r.res.MaxBuffered {
		r.res.MaxBuffered = b
	}
	for i := range deps {
		r.pool.Put(deps[i].Expected)
	}
}

// handedOut renders the departures the runner's last Step handed out — the
// batch its switch's Drain returned, which under recycle mode stays in
// doneOut until the next Drain. A Step that skips Drain while a batch is
// still out shows here as handing that batch out twice.
func handedOut(r *Runner) []string {
	var out []string
	for _, d := range r.s.doneOut {
		out = append(out, fmt.Sprintf("seq=%d out=%d vc=%d in=%d headout=%d tailout=%d delay=%d words=%v intact=%v",
			d.Expected.Seq, d.Output, d.VC, d.HeadIn, d.HeadOut, d.TailOut, d.InitDelay, d.Cell.Words, d.Cell.Equal(d.Expected)))
	}
	return out
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
// compares what the Step returned, the departures it handed out, the
// RunnerState, the switch snapshot and the stream state. Everything a
// checkpoint could cut, at every cycle it could cut it.
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
					want := runnerTo(t, cfg, tc, cycles, pol, 0)
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
// driver state — are indistinguishable after cycle c.
func compareRunners(t *testing.T, c int, got, want *Runner) {
	t.Helper()
	if g, w := handedOut(got), handedOut(want); !reflect.DeepEqual(g, w) {
		t.Fatalf("cycle %d: departures handed out\n got  %v\n want %v", c, g, w)
	}
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
