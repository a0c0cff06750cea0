package clos

import (
	"testing"

	"pipemem/internal/traffic"
)

// The assertions that hold for any wiring — all-pairs delivery,
// determinism, worker-count bit-identity, zero-alloc stepping, loss
// accounting, flight-trace reconciliation — are tables over both
// topologies in internal/fabric's tests; what is here is the Clos's own.

// Run is the engine's method under the name the tests below call it by.
var Run = (*Net).Run

func mustNet(t *testing.T, cfg Config) *Net {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidate(t *testing.T) {
	good := Config{Radix: 4, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []Config{
		{Radix: 1, SwitchCells: 8},
		{Radix: 4, Middles: 5, SwitchCells: 8},
		{Radix: 4, SwitchCells: 0},
		{Radix: 4, SwitchCells: 8, Credits: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestMiddleLoadBalance: round-robin middle selection spreads uniform
// traffic evenly across the populated middles.
func TestMiddleLoadBalance(t *testing.T) {
	f := mustNet(t, Config{Radix: 4, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true})
	res, err := Run(f, traffic.Config{Kind: traffic.Bernoulli, Load: 0.5, Seed: 3}, 2_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 {
		t.Fatalf("corrupt=%d", res.Corrupt)
	}
	loads := f.MiddleLoad()
	var minL, maxL int64 = 1 << 62, 0
	for _, l := range loads {
		if l < minL {
			minL = l
		}
		if l > maxL {
			maxL = l
		}
	}
	if minL == 0 {
		t.Fatalf("a middle switch carried nothing: %v", loads)
	}
	if float64(maxL-minL)/float64(maxL) > 0.05 {
		t.Fatalf("middle load imbalance: %v", loads)
	}
}

// TestThroughputGrowsWithMiddles is the classic Clos sizing curve: with
// only 1 of 4 middles populated the fabric bottlenecks at ~1/4 capacity;
// each added middle buys a proportional slice back.
func TestThroughputGrowsWithMiddles(t *testing.T) {
	var prev float64
	for _, m := range []int{1, 2, 4} {
		f := mustNet(t, Config{Radix: 4, Middles: m, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true})
		res, err := Run(f, traffic.Config{Kind: traffic.Saturation, Seed: 7}, 5_000, 40_000)
		if err != nil {
			t.Fatal(err)
		}
		if res.InteriorDrops != 0 || res.Corrupt != 0 {
			t.Fatalf("m=%d: interior drops %d, corrupt %d", m, res.InteriorDrops, res.Corrupt)
		}
		if m == 1 && res.Throughput > 0.35 {
			t.Fatalf("1 middle: throughput %.3f, should bottleneck near 1/4", res.Throughput)
		}
		if res.Throughput <= prev {
			t.Fatalf("m=%d: throughput %.3f not above m=%d's %.3f", m, res.Throughput, m/2, prev)
		}
		prev = res.Throughput
	}
	if prev < 0.5 {
		t.Fatalf("full middle stage saturates at %.3f, implausibly low", prev)
	}
}

// TestChainedCutThroughAcrossThreeStages: light load, head latency ≈
// 3 hops × ~3 cycles.
func TestChainedCutThroughAcrossThreeStages(t *testing.T) {
	f := mustNet(t, Config{Radix: 4, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	f.Inject(1, 14, 1)
	for i := 0; i < 300; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if f.Delivered() != 1 {
		t.Fatalf("delivered %d", f.Delivered())
	}
	lat := f.Latency().Mean()
	sf := float64(3 * (f.CellWords() + 2))
	if lat >= sf/2 {
		t.Fatalf("head latency %.1f: not chained cut-through (SF ≈ %.0f)", lat, sf)
	}
}

// TestLosslessUnderLoadWithCredits.
func TestLosslessUnderLoadWithCredits(t *testing.T) {
	f := mustNet(t, Config{Radix: 4, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true})
	res, err := Run(f, traffic.Config{Kind: traffic.Bernoulli, Load: 0.6, Seed: 11}, 2_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 || res.Corrupt != 0 {
		t.Fatalf("drops=%d corrupt=%d", res.Drops, res.Corrupt)
	}
	if res.Throughput < 0.55 {
		t.Fatalf("throughput %.3f at offered 0.6", res.Throughput)
	}
}
