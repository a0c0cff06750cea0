package fabric

import (
	"os"
	"testing"
	"time"

	"pipemem/internal/traffic"
)

// TestFabricAggregateRate is the opt-in 1024-terminal throughput gate
// (PIPEMEM_WALLCLOCK=1, run by `make wallclock`). It drives a
// 1024-terminal butterfly at saturation and reports the aggregate
// switching rate — delivered cells × stages per wall-clock second, i.e.
// cells forwarded per second summed over every node — best of several
// windows to shed co-tenant noise.
//
// The floor asserted here is a regression tripwire for the sequential
// per-core engine, set well under the rate the reference host sustains
// (see EXPERIMENTS.md for measured numbers); the design target of 10M+
// aggregate cells/sec is a multi-core figure — the sharded engine splits
// the node array across workers with bit-identical results. What a second
// worker buys is not this gate's business, and no ledger row measures it
// yet: engine.workers2_speedup runs fabric64-sat, whose 16 nodes fill one
// 64-node shard, so Workers: 2 resolves to one worker there. On this
// gate's shape (1,280 nodes, twenty 64-node words) two workers over one read
// 1.7–1.85× on a 2-vCPU host (EXPERIMENTS.md, X6).
func TestFabricAggregateRate(t *testing.T) {
	if os.Getenv("PIPEMEM_WALLCLOCK") != "1" {
		t.Skip("wall-clock gates are opt-in: set PIPEMEM_WALLCLOCK=1 (make wallclock)")
	}
	const floor = 250_000 // aggregate cells/sec, conservative for shared hosts
	f, err := New(Config{
		Terminals: 1024, Radix: 4, WordBits: 16, SwitchCells: 16,
		Credits: 4, CutThrough: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 5, N: 1024}, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Drive(cs, 500); err != nil {
		t.Fatal(err)
	}
	const windows, meas = 4, 1000
	var best float64
	for w := 0; w < windows; w++ {
		d0 := f.Delivered()
		start := time.Now()
		if err := f.Drive(cs, meas); err != nil {
			t.Fatal(err)
		}
		el := time.Since(start)
		agg := float64((f.Delivered()-d0)*int64(f.Stages())) / el.Seconds()
		if agg > best {
			best = agg
		}
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	t.Logf("1024-terminal radix-4 butterfly: %.2fM aggregate cells/sec (best of %d windows)", best/1e6, windows)
	if best < floor {
		t.Fatalf("aggregate rate %.0f cells/sec below the %.0f floor", best, float64(floor))
	}
}
