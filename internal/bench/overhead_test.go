package bench

import (
	"io"
	"os"
	"testing"
	"time"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fabric"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// steady is the 8×8 steady-state point (BenchmarkTickSteadyState's shape,
// the ledger's serve-steady spec) the single-switch rows run to completion.
var steady = ckpt.Spec{
	Switch:  core.Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
	Traffic: traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42},
	Cycles:  1_000_000,
}

// metricsObserver is a fresh metrics observer (no tracer) for the point.
func metricsObserver() *core.Observer {
	return core.NewObserver(obs.NewRegistry(), steady.Switch.Ports)
}

// runnerRate is the raw rate: core.Runner drives the steady point from
// cycle zero through its drain, with o (nil = none) observing the switch.
func runnerRate(t *testing.T, o *core.Observer) float64 {
	sw, err := core.New(steady.Switch)
	if err != nil {
		t.Fatal(err)
	}
	sw.SetObserver(o)
	cs, err := traffic.NewCellStream(steady.Traffic, sw.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	res, err := core.NewRunner(sw, cs, steady.Cycles).Result()
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Delivered) / time.Since(start).Seconds()
}

// sessionRate runs the same point through ckpt.Session.StepN in
// telemetry-cadence batches, calling between (if set) after each batch.
func sessionRate(t *testing.T, opts ckpt.Options, between func(*ckpt.Session)) float64 {
	sim, err := ckpt.New(steady, opts)
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	for done := false; !done; {
		if _, done, err = sim.StepN(256); err != nil {
			t.Fatal(err)
		}
		if between != nil {
			between(sim)
		}
	}
	res, err := sim.Finish()
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Delivered) / time.Since(start).Seconds()
}

// servedRate is the load one pmserve session carries: a metrics observer,
// a telemetry row every 256 cycles and a full-state checkpoint (in memory:
// the fsync of a file checkpoint is the disk's cost, not the program's)
// every 8 free-run batches of 8192 cycles.
func servedRate(t *testing.T) float64 {
	ts := obs.NewTimeSeries(4096, "buffered", "resident", "offered", "delivered", "dropped")
	return sessionRate(t, ckpt.Options{Observer: metricsObserver()}, func(sim *ckpt.Session) {
		sw, rs := sim.Switch(), sim.Runner().State()
		copy(ts.Sample(sw.Cycle()), []int64{
			int64(sw.Buffered()), int64(sw.Resident()), rs.Offered, rs.Delivered, sw.DroppedCells(),
		})
		if sw.Cycle()%(8*8192) == 0 {
			if _, err := sim.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// fabricRate is fabric.Run on the saturated 64-terminal butterfly (the
// ledger's fabric64-sat shape), optionally with 1-in-64 flight tracing
// streamed to a discarded JSONL sink.
func fabricRate(t *testing.T, traced bool) float64 {
	f, err := fabric.New(fabric.Config{
		Terminals: 64, Radix: 8, WordBits: 16, SwitchCells: 32,
		Credits: 4, CutThrough: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if traced {
		tr := obs.NewTracer(obs.NewJSONLSink(io.Discard), 0, 1)
		defer tr.Close()
		if err := f.SetFlightTrace(tr, 64); err != nil {
			t.Fatal(err)
		}
	}
	start := time.Now()
	res, err := f.Run(traffic.Config{Kind: traffic.Saturation, Seed: 42}, 0, 120_000)
	if err != nil {
		t.Fatal(err)
	}
	return float64(res.Delivered) / time.Since(start).Seconds()
}

// TestOverheadBudget is the repo's one wall-clock overhead gate: each row
// is an optional tap, and switching it on must keep the stated fraction of
// the cells/sec the same product loop sustains with it off. The rows run
// whole runs from cycle zero (construction excluded), so both sides carry
// the same cold start and drain.
//
// Wall-clock ratios need an idle host, so the test is opt-in via
// PIPEMEM_WALLCLOCK=1 (make wallclock). What is deterministic about each
// tap is asserted unconditionally elsewhere: zero allocations with and
// without an observer (core TestTickZeroAlloc*), by the auditor
// (TestAuditZeroAlloc) and by an untraced fabric Step (TestStepZeroAlloc);
// the absolute costs are rows of the ledger (go run ./benchmark:
// obs.observer_added_ns_per_cycle, ckpt.stepn_added_ns_per_cycle,
// ckpt.checkpoint_ms, srv.step_added_ns_per_cycle).
func TestOverheadBudget(t *testing.T) {
	if os.Getenv("PIPEMEM_WALLCLOCK") != "1" {
		t.Skip("wall-clock gates are opt-in: set PIPEMEM_WALLCLOCK=1 (make wallclock)")
	}
	rows := []struct {
		name  string
		floor float64
		rate  func(t *testing.T, on bool) float64
	}{
		// Metrics observer installed on the switch (event tracing is
		// budgeted through its sampling knob, not here).
		{"obs", 0.90, func(t *testing.T, on bool) float64 {
			if !on {
				return runnerRate(t, nil)
			}
			return runnerRate(t, metricsObserver())
		}},
		// Invariant audit every 64 cycles — far hotter than any cadence
		// the CLI's -audit picks.
		{"audit", 0.90, func(t *testing.T, on bool) float64 {
			if !on {
				return sessionRate(t, ckpt.Options{}, nil)
			}
			return sessionRate(t, ckpt.Options{AuditEvery: 64}, nil)
		}},
		// 1-in-64 sampled flight tracing on the fabric.
		{"trace", 0.90, fabricRate},
		// X8: everything a served session adds, against the raw runner.
		{"serve", 0.65, func(t *testing.T, on bool) float64 {
			if !on {
				return runnerRate(t, nil)
			}
			return servedRate(t)
		}},
	}
	// Interleaved rounds, best of each side: frequency drift and co-tenant
	// bursts hit both configurations alike, and the fastest run is the
	// closest observable to the undisturbed rate.
	const rounds = 5
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			var off, on float64
			for i := 0; i < rounds; i++ {
				off = max(off, row.rate(t, false))
				on = max(on, row.rate(t, true))
			}
			t.Logf("off %.0f cells/sec, on %.0f cells/sec: ratio %.3f (floor %.2f)", off, on, on/off, row.floor)
			if on < row.floor*off {
				t.Fatalf("%s keeps %.1f%% of the rate without it; the budget is %.0f%%", row.name, 100*on/off, 100*row.floor)
			}
		})
	}
}
