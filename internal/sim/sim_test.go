package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pipemem/internal/analytic"
	"pipemem/internal/arb"
	"pipemem/internal/traffic"
)

// gen is the slot-level arrival process: a stream of one-word cells.
func gen(t *testing.T, cfg traffic.Config) *traffic.CellStream {
	t.Helper()
	g, err := traffic.NewCellStream(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func allArchs(n int) []Arch {
	return []Arch{
		NewInputFIFO(n, 64),
		NewVOQ(n, 64, nil),
		NewVOQ(n, 64, arb.NewPIM(0, 9)),
		NewVOQ(n, 64, arb.NewTwoDRR()),
		NewOutputQueue(n, 64),
		NewSharedBuffer(n, 64*n),
		NewCrosspoint(n, 16),
		NewBlockCrosspoint(n, 2, 64),
		NewSpeedupFabric(n, 64, 64, 2),
		NewInputSmoothing(n, 16),
	}
}

// TestConservation checks, for every architecture, that cells are neither
// created nor destroyed: offered = accepted + dropped and
// accepted = departed + resident, at every step (the shared Conserve
// helper; Run re-checks it at the end of every simulation).
func TestConservation(t *testing.T) {
	const n = 8
	for _, a := range allArchs(n) {
		g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.9, Seed: 17})
		arrivals := make([]int, n)
		for s := 0; s < 5000; s++ {
			g.Heads(arrivals)
			a.Step(arrivals)
			if err := Conserve(a); err != nil {
				t.Fatalf("step %d: %v", s, err)
			}
		}
		if a.Metrics().Departed == 0 {
			t.Fatalf("%s: nothing departed under load 0.9", a.Name())
		}
	}
}

// TestWorkConservingThroughput: architectures without head-of-line
// blocking must carry offered load p when buffers are ample.
func TestWorkConservingThroughput(t *testing.T) {
	const n, p = 8, 0.7
	for _, a := range []Arch{
		NewOutputQueue(n, 0),
		NewSharedBuffer(n, 4096),
		NewCrosspoint(n, 0),
		NewVOQ(n, 0, nil),
		NewBlockCrosspoint(n, 2, 2048),
	} {
		g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 23})
		r := Run(a, g, 5_000, 100_000)
		if math.Abs(r.Throughput-p) > 0.01 {
			t.Errorf("%s: throughput %v, want ≈%v", a.Name(), r.Throughput, p)
		}
		if r.LossProb > 1e-4 {
			t.Errorf("%s: loss %v with ample buffers", a.Name(), r.LossProb)
		}
	}
}

// TestInputFIFOSaturation reproduces the head-of-line blocking limits of
// [KaHM87]: ≈0.75 for n=2, ≈0.62 for n=8 (the "about 60%" of §2.1).
func TestInputFIFOSaturation(t *testing.T) {
	for _, n := range []int{2, 8} {
		a := NewInputFIFO(n, 256)
		g := gen(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 31})
		r := Run(a, g, 20_000, 200_000)
		want := analytic.HOLSaturation(n)
		if math.Abs(r.Throughput-want) > 0.01 {
			t.Errorf("n=%d: saturation throughput %v, want ≈%v", n, r.Throughput, want)
		}
	}
}

// TestVOQBeatsInputFIFO: removing FIFO order must lift saturation
// throughput well above the HOL limit (§2.1).
func TestVOQBeatsInputFIFO(t *testing.T) {
	const n = 8
	a := NewVOQ(n, 256, nil)
	g := gen(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 37})
	r := Run(a, g, 20_000, 100_000)
	if r.Throughput < 0.95 {
		t.Errorf("VOQ+iSLIP saturation %v, want ≈1", r.Throughput)
	}
}

// TestOutputQueueLatencyMatchesKarol checks the mean wait against
// eq. (14) of [KaHM87].
func TestOutputQueueLatencyMatchesKarol(t *testing.T) {
	const n = 16
	for _, p := range []float64{0.5, 0.8} {
		a := NewOutputQueue(n, 0)
		g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 41})
		r := Run(a, g, 20_000, 300_000)
		want := analytic.OutputQueueWait(n, p)
		if math.Abs(r.MeanLatency-want)/want > 0.05 {
			t.Errorf("p=%v: mean wait %v, want ≈%v", p, r.MeanLatency, want)
		}
	}
}

// TestSharedVsOutputLoss: with the same total buffer space, the shared
// buffer must lose (much) less than partitioned output queues — the §2.2
// motivation for shared buffering.
func TestSharedVsOutputLoss(t *testing.T) {
	const n, p, totalBuf = 16, 0.9, 96
	shared := NewSharedBuffer(n, totalBuf)
	output := NewOutputQueue(n, totalBuf/n)
	var lossShared, lossOutput float64
	for _, tc := range []struct {
		a    Arch
		loss *float64
	}{{shared, &lossShared}, {output, &lossOutput}} {
		g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 43})
		r := Run(tc.a, g, 20_000, 300_000)
		*tc.loss = r.LossProb
	}
	if lossOutput == 0 {
		t.Fatal("output queueing shows no loss; test not discriminating")
	}
	if lossShared >= lossOutput {
		t.Errorf("shared loss %v not below output loss %v", lossShared, lossOutput)
	}
}

// TestOutputVsVOQLatency reproduces the shape of [AOST93, fig. 3] quoted
// in §2.2: output (= shared) queueing is about twice as fast as input
// buffering at loads 0.6–0.9.
func TestOutputVsVOQLatency(t *testing.T) {
	const n = 16
	for _, p := range []float64{0.7, 0.9} {
		out := NewOutputQueue(n, 0)
		voq := NewVOQ(n, 0, arb.NewISLIP(n, 1))
		var latOut, latVOQ float64
		g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 47})
		latOut = Run(out, g, 20_000, 200_000).MeanLatency
		g = gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 47})
		latVOQ = Run(voq, g, 20_000, 200_000).MeanLatency
		if latVOQ <= latOut {
			t.Errorf("p=%v: VOQ latency %v not above output latency %v", p, latVOQ, latOut)
		}
	}
}

// TestInputSmoothingFrameBehaviour: deterministic single-burst check of
// the frame mechanics — b cells to one output survive, b+1 lose one.
func TestInputSmoothingFrameMechanics(t *testing.T) {
	const n, b = 4, 2
	a := NewInputSmoothing(n, b)
	arrivals := make([]int, n)
	clear := func() {
		for i := range arrivals {
			arrivals[i] = NoArrival
		}
	}
	// Slot 0: three inputs send to output 0 — one more than the frame
	// can accept for a single output.
	clear()
	arrivals[0], arrivals[1], arrivals[2] = 0, 0, 0
	a.Step(arrivals)
	clear()
	a.Step(arrivals) // frame boundary after b=2 slots
	for s := 0; s < 2*b; s++ {
		a.Step(arrivals)
	}
	m := a.Metrics()
	if m.Dropped != 1 {
		t.Fatalf("dropped %d, want 1 (frame accepts only b=2 for one output)", m.Dropped)
	}
	if m.Departed != 2 {
		t.Fatalf("departed %d, want 2", m.Departed)
	}
	if err := Conserve(a); err != nil {
		t.Fatal(err)
	}
}

// TestSpeedupFabricLiftsSaturation: a 2× internal fabric must lift input
// queueing's saturation well above the HOL limit (§2.1, [PaBr93]).
func TestSpeedupFabricLiftsSaturation(t *testing.T) {
	const n = 8
	a := NewSpeedupFabric(n, 256, 256, 2)
	g := gen(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 53})
	r := Run(a, g, 20_000, 100_000)
	if r.Throughput < 0.9 {
		t.Errorf("speedup-2 saturation %v, want > 0.9", r.Throughput)
	}
}

// TestCrosspointOptimalUtilization: crosspoint queueing achieves full link
// utilization at saturation (§2.1).
func TestCrosspointOptimalUtilization(t *testing.T) {
	const n = 8
	a := NewCrosspoint(n, 0)
	g := gen(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 59})
	r := Run(a, g, 20_000, 50_000)
	if r.Throughput < 0.99 {
		t.Errorf("crosspoint saturation %v, want ≈1", r.Throughput)
	}
}

// TestBlockCrosspointBetweenExtremes: with equal total memory, the block
// architecture's loss sits at or below crosspoint's (it shares within
// blocks) — §2.2's claim of "better buffer space utilization than
// crosspoint queueing".
func TestBlockCrosspointBetweenExtremes(t *testing.T) {
	const n, p = 8, 0.95
	const totalCells = 64
	// crosspoint: 1 cell per crosspoint (64 queues); block (g=4): 4
	// blocks of 16 cells.
	cp := NewCrosspoint(n, totalCells/(n*n))
	bc := NewBlockCrosspoint(n, 4, totalCells/4)
	g1 := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 61})
	lossCP := Run(cp, g1, 10_000, 200_000).LossProb
	g2 := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 61})
	lossBC := Run(bc, g2, 10_000, 200_000).LossProb
	if lossBC >= lossCP {
		t.Errorf("block-crosspoint loss %v not below crosspoint loss %v", lossBC, lossCP)
	}
}

func TestRunPanicsOnSizeMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run(NewOutputQueue(8, 0), gen(t, traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 1}), 0, 1)
}

// TestResultReportsLatencyOverflow: an overloaded input-FIFO switch queues
// cells for longer than the latency histogram resolves, so its p99 reads
// the histogram's limit. The result must say so, not quote the limit as a
// measured quantile.
func TestResultReportsLatencyOverflow(t *testing.T) {
	const n = 16
	r := Run(NewInputFIFO(n, 100_000), gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.7, Seed: 1}), 0, 50_000)
	if r.LatencyOverflow == 0 {
		t.Fatalf("no latency overflow at load 0.7 over the HOL limit: %s", r)
	}
	if !strings.Contains(r.String(), fmt.Sprintf("lat-overflow=%d", r.LatencyOverflow)) {
		t.Fatalf("String() hides the overflow: %s", r)
	}
}

func TestResultString(t *testing.T) {
	r := Result{Arch: "x", N: 4, Throughput: 0.5}
	if r.String() == "" {
		t.Fatal("empty string")
	}
}

func TestBlockCrosspointBadGroupPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBlockCrosspoint(8, 3, 16)
}
