package core

import (
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// benchTick drives a switch for b.N cycles with the pooled injection path
// (cell.Pool + SetDrainRecycle) that RunTraffic uses. ns/op is ns/cycle;
// allocs/op must be 0 in steady state; cells/sec is reported as a rate
// metric. A non-nil observer is installed before the warmup.
func benchTick(b *testing.B, cfg Config, tcfg traffic.Config, o ...*Observer) {
	benchTickArmed(b, cfg, tcfg, nil, o...)
}

// benchTickArmed is benchTick with a flow-control model attached: arm
// installs its hooks on the switch and returns the function the driver
// calls once per cycle with that cycle's departures.
func benchTickArmed(b *testing.B, cfg Config, tcfg traffic.Config, arm func(*Switch) func([]Departure), o ...*Observer) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if len(o) > 0 && o[0] != nil {
		s.SetObserver(o[0])
	}
	var perCycle func([]Departure)
	if arm != nil {
		perCycle = arm(s)
	}
	k := s.Config().Stages
	cs, err := traffic.NewCellStream(tcfg, k)
	if err != nil {
		b.Fatal(err)
	}
	pool := cell.NewPool(k)
	s.SetDrainRecycle(true)
	// Overrun victims go back to the pool as RunTraffic's do, so an
	// overloaded point stays allocation-free too.
	s.SetDropCellHook(func(c *cell.Cell, reusable bool) {
		if reusable {
			pool.Put(c)
		}
	})
	heads := make([]int, s.Config().Ports)
	hc := make([]*cell.Cell, s.Config().Ports)
	var seq uint64
	delivered := 0
	tick := func() {
		if cs.Heads(heads) == 0 {
			s.Tick(nil)
		} else {
			for j := range hc {
				hc[j] = nil
				if heads[j] != traffic.NoArrival {
					seq++
					hc[j] = pool.New(seq, j, heads[j], cfg.WordBits)
				}
			}
			s.Tick(hc)
		}
		deps := s.Drain()
		if perCycle != nil {
			perCycle(deps)
		}
		for _, d := range deps {
			pool.Put(d.Expected)
			delivered++
		}
	}
	// Warm the pools so the measured window is steady state.
	for i := 0; i < 4*cfg.Cells; i++ {
		tick()
	}
	delivered = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(delivered)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkTickSteadyState is the headline microbenchmark: an 8×8 switch
// at full admissible load (permutation traffic, the E5/E9-shaped RTL
// saturation run).
func BenchmarkTickSteadyState(b *testing.B) {
	benchTick(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42})
}

// BenchmarkTickSteadyStateMetrics is the same point with the metrics
// observer installed (no tracer) — compare against
// BenchmarkTickSteadyState for the enabled-metrics overhead (budget: ≤10%
// cells/sec, 0 allocs/op; gated by the obs row of `make wallclock`).
func BenchmarkTickSteadyStateMetrics(b *testing.B) {
	benchTick(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42},
		NewObserver(obs.NewRegistry(), 8))
}

// BenchmarkTickSteadyStateObserved adds the ring tracer at sampling 1 —
// the full-rate trace cost (every wave, stall and departure emits an
// event). This is the worst case; production tracing bounds it with the
// -trace-sample knob.
func BenchmarkTickSteadyStateObserved(b *testing.B) {
	o := NewObserver(obs.NewRegistry(), 8)
	o.Tracer = obs.NewTracer(nil, 0, 1)
	benchTick(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42},
		o)
}

// BenchmarkTickSaturation overloads the same switch with uniform
// saturation traffic (HOL-free shared buffer under maximum pressure).
func BenchmarkTickSaturation(b *testing.B) {
	benchTick(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 42})
}

// BenchmarkTickGated8x8 is BenchmarkTickSaturation behind credit-style
// link flow control, the way a fabric's interior node runs: two credits
// per output, one taken per transmission (the 1→0 edge closes the gate),
// each handed back two cell times after its departure completes (the 0→1
// edge reopens it). Two credits on a three-cell-time round trip hold every
// backlogged output to 2/3 of its link rate: a third of the time it is
// idle, occupied and closed — the case that used to defeat the read
// picker's fail-fast bound and now costs one AND.
func BenchmarkTickGated8x8(b *testing.B) {
	cfg := Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	arm := func(s *Switch) func([]Departure) {
		k := s.Config().Stages
		credits := make([]int, cfg.Ports)
		for o := range credits {
			credits[o] = 2
		}
		s.SetTransmitCellHook(func(out int, _ *cell.Cell, _ int64) {
			if credits[out]--; credits[out] == 0 {
				s.SetOutputOpen(out, false)
			}
		})
		// due[c mod len] is the output (+1) whose credit returns at cycle
		// c; at most one departure completes per cycle, so one slot each.
		due := make([]int, 4*k)
		return func(deps []Departure) {
			c := int(s.Cycle()) % len(due)
			if o := due[c] - 1; o >= 0 {
				due[c] = 0
				if credits[o]++; credits[o] == 1 {
					s.SetOutputOpen(o, true)
				}
			}
			for _, d := range deps {
				due[(c+2*k)%len(due)] = d.Output + 1
			}
		}
	}
	benchTickArmed(b, cfg, traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 42}, arm)
}

// BenchmarkTickECC8x8 is the steady-state point on an ECC-protected,
// store-and-forward switch (an ECC switch buffers every cell: a word that
// cut through would never be checked). With no upset outstanding it runs
// on the batched path; compare with BenchmarkTickSteadyState for what
// protection plus the trip through the buffer costs there.
func BenchmarkTickECC8x8(b *testing.B) {
	benchTick(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, ECC: true},
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42})
}

// BenchmarkTickBernoulli16 exercises a larger switch at 0.8 load.
func BenchmarkTickBernoulli16(b *testing.B) {
	benchTick(b,
		Config{Ports: 16, WordBits: 16, Cells: 512, CutThrough: true},
		traffic.Config{Kind: traffic.Bernoulli, N: 16, Load: 0.8, Seed: 42})
}

// BenchmarkRunTraffic measures the full RunTraffic driver (stream
// decode, injection, verification) per cycle.
func BenchmarkRunTraffic(b *testing.B) {
	s, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, s.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	res, err := RunTraffic(s, cs, int64(b.N))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Delivered)/b.Elapsed().Seconds(), "cells/sec")
}

// benchRunnerStep times Runner.Step, the driver under every session and
// under the ledger's sw8 rows, on their 8×8 switch: ns/op is ns per driven
// cycle, and a warm runner allocates nothing.
func benchRunnerStep(b *testing.B, tc traffic.Config) {
	s, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := traffic.NewCellStream(tc, s.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	r := NewRunner(s, cs, 1<<62)
	for i := 0; i < 16384; i++ {
		r.Step()
	}
	delivered := r.res.Delivered
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Step()
	}
	b.StopTimer()
	b.ReportMetric(float64(r.res.Delivered-delivered)/b.Elapsed().Seconds(), "cells/sec")
}

// BenchmarkRunnerStepSparse is the sw8-sparse shape, bursty load 0.05: two
// cycles in three find the stream without a head and the switch idle, and
// coast.
func BenchmarkRunnerStepSparse(b *testing.B) {
	benchRunnerStep(b, traffic.Config{Kind: traffic.Bursty, N: 8, Load: 0.05, BurstLen: 8, Seed: 42})
}

// BenchmarkRunnerStepSaturated is the sw8-sat shape: no cycle ever coasts,
// so the row carries what asking costs a busy Step — one flag test.
func BenchmarkRunnerStepSaturated(b *testing.B) {
	benchRunnerStep(b, traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 42})
}

// dualTickLoop builds the pooled steady-state injection loop for the §3.5
// half-quantum organization — an 8×8 at full admissible load — warms its
// pools, and returns the per-cycle closure and its delivery counter.
func dualTickLoop(tb testing.TB) (tick func(), delivered *int) {
	tb.Helper()
	cfg := Config{Ports: 8, WordBits: 16, Cells: 128, CutThrough: true}
	d, err := NewDual(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	k := d.Config().Stages
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, k)
	if err != nil {
		tb.Fatal(err)
	}
	pool := cell.NewPool(k)
	d.SetDrainRecycle(true)
	heads := make([]int, 8)
	hc := make([]*cell.Cell, 8)
	var seq uint64
	delivered = new(int)
	tick = func() {
		cs.Heads(heads)
		for j := range hc {
			hc[j] = nil
			if heads[j] != traffic.NoArrival {
				seq++
				hc[j] = pool.New(seq, j, heads[j], cfg.WordBits)
			}
		}
		d.Tick(hc)
		for _, dep := range d.Drain() {
			pool.Put(dep.Expected)
			*delivered++
		}
	}
	for i := 0; i < 4*cfg.Cells; i++ {
		tick()
	}
	*delivered = 0
	return tick, delivered
}

// BenchmarkDualTickSteadyState drives the §3.5 half-quantum organization
// with the pooled path.
func BenchmarkDualTickSteadyState(b *testing.B) {
	tick, delivered := dualTickLoop(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tick()
	}
	b.StopTimer()
	b.ReportMetric(float64(*delivered)/b.Elapsed().Seconds(), "cells/sec")
}

// TestDualTickZeroAlloc: a warm DualSwitch allocates nothing per cycle.
func TestDualTickZeroAlloc(t *testing.T) {
	tick, delivered := dualTickLoop(t)
	if allocs := testing.AllocsPerRun(2000, tick); allocs != 0 {
		t.Fatalf("dual Tick allocates %.2f/op, want 0", allocs)
	}
	if *delivered == 0 {
		t.Fatal("vacuous drive: nothing was delivered")
	}
}

// BenchmarkTickTraced is BenchmarkTickSteadyState with a fig. 5 tracer
// installed — the cost of a pmrtl -trace/-vcd/-tracejson run per cycle,
// event assembly included; the consumer only counts stage-0 initiations.
func BenchmarkTickTraced(b *testing.B) {
	inits := 0
	arm := func(s *Switch) func([]Departure) {
		s.SetTracer(func(e TraceEvent) {
			if e.Ctrl[0].Kind != OpNone {
				inits++
			}
		})
		return nil
	}
	benchTickArmed(b,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, arm)
	if inits == 0 {
		b.Fatal("tracer saw no initiation")
	}
}
