package sim

import (
	"testing"

	"pipemem/internal/analytic"
	"pipemem/internal/traffic"
)

// TestCappedBehavesLikeSharedUnderUniform: with a generous cap the capped
// buffer matches the plain shared buffer on uniform traffic.
func TestCappedBehavesLikeSharedUnderUniform(t *testing.T) {
	const n, buf = 8, 128
	capped := NewCappedSharedBuffer(n, buf, buf)
	plain := NewSharedBuffer(n, buf)
	g1 := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.8, Seed: 71})
	r1 := Run(capped, g1, 5_000, 100_000)
	g2 := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.8, Seed: 71})
	r2 := Run(plain, g2, 5_000, 100_000)
	if r1.Throughput != r2.Throughput || r1.Dropped != r2.Dropped {
		t.Fatalf("uncapped-equivalent mismatch: %+v vs %+v", r1, r2)
	}
}

// TestHotspotHogging exposes the weakness: under a persistent hotspot,
// the pure shared buffer lets the hot output's queue consume the whole
// pool, so even cold-destination cells are dropped; the per-output cap
// keeps cold loss at (near) zero while the hot output saturates either
// way.
func TestHotspotHogging(t *testing.T) {
	const n, buf = 16, 128
	const hot = 3
	cfg := traffic.Config{Kind: traffic.Hotspot, N: n, Load: 0.7, HotFrac: 0.4, HotPort: hot, Seed: 73}

	plain := NewSharedBuffer(n, buf)
	g1 := gen(t, cfg)
	Run(plain, g1, 10_000, 300_000)

	capped := NewCappedSharedBuffer(n, buf, buf/4)
	g2 := gen(t, cfg)
	Run(capped, g2, 10_000, 300_000)

	coldLoss := func(m *Metrics) float64 {
		var off, drop int64
		for d := 0; d < n; d++ {
			if d == hot {
				continue
			}
			if d < len(m.OfferedTo) {
				off += m.OfferedTo[d]
				drop += m.DroppedTo[d]
			}
		}
		if off == 0 {
			return 0
		}
		return float64(drop) / float64(off)
	}
	plainCold := coldLoss(plain.Metrics())
	cappedCold := coldLoss(capped.Metrics())
	if plainCold == 0 {
		t.Fatal("hotspot did not hog the plain shared buffer; test not discriminating")
	}
	if cappedCold >= plainCold/10 {
		t.Fatalf("cap did not protect cold traffic: capped %v vs plain %v", cappedCold, plainCold)
	}
	// The hot output is oversubscribed (0.4·0.7·16 ≈ 4.5× its capacity):
	// it must lose heavily under both schemes.
	if plain.Metrics().LossTo(hot) < 0.5 || capped.Metrics().LossTo(hot) < 0.5 {
		t.Fatalf("hot output losses implausibly low: %v / %v",
			plain.Metrics().LossTo(hot), capped.Metrics().LossTo(hot))
	}
}

// TestCappedConservation: the capped variant conserves cells like every
// other architecture.
func TestCappedConservation(t *testing.T) {
	a := NewCappedSharedBuffer(8, 64, 16)
	g := gen(t, traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 77})
	arrivals := make([]int, 8)
	for s := 0; s < 5_000; s++ {
		g.Heads(arrivals)
		a.Step(arrivals)
		if err := Conserve(a); err != nil {
			t.Fatalf("step %d: %v", s, err)
		}
	}
}

// TestLossToAccounting: per-destination counters agree with the totals.
func TestLossToAccounting(t *testing.T) {
	a := NewSharedBuffer(4, 8)
	g := gen(t, traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 79})
	arrivals := make([]int, 4)
	for s := 0; s < 20_000; s++ {
		g.Heads(arrivals)
		a.Step(arrivals)
	}
	m := a.Metrics()
	var off, drop int64
	for d := 0; d < 4; d++ {
		off += m.OfferedTo[d]
		drop += m.DroppedTo[d]
	}
	if off != m.Offered || drop != m.Dropped {
		t.Fatalf("per-destination sums (%d, %d) != totals (%d, %d)", off, drop, m.Offered, m.Dropped)
	}
	if m.LossTo(99) != 0 {
		t.Fatal("out-of-range LossTo should be 0")
	}
	if err := Conserve(a); err != nil {
		t.Fatal(err)
	}
}

// TestOccupancyMatchesAnalytic: the slot-level shared buffer's mean
// occupancy tracks the closed form n·(p + p·W) at moderate load.
func TestOccupancyMatchesAnalytic(t *testing.T) {
	const n, p = 16, 0.8
	a := NewSharedBuffer(n, 4096)
	g := gen(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: p, Seed: 83})
	arrivals := make([]int, n)
	for s := 0; s < 20_000; s++ { // warm-up
		g.Heads(arrivals)
		a.Step(arrivals)
	}
	var sum float64
	const slots = 300_000
	for s := 0; s < slots; s++ {
		g.Heads(arrivals)
		a.Step(arrivals)
		sum += float64(a.Resident())
	}
	got := sum / slots
	// SharedBufferOccupancy counts cells in system including the one in
	// transmission (L = n·p·(W+1)); Resident() is sampled after the
	// departure phase, i.e. excluding the n·p in-service cells, so the
	// comparable quantity is n·p·W.
	want := analytic.SharedBufferOccupancy(n, p) - n*p
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("mean post-departure occupancy %v, analytic n·p·W = %v", got, want)
	}
	if err := Conserve(a); err != nil {
		t.Fatal(err)
	}
}
