package traffic

import (
	"math"
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	valid := Config{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 1}
	if err := valid.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Kind: Bernoulli, N: 1, Load: 0.5},
		{Kind: Bernoulli, N: 4, Load: 0},
		{Kind: Bernoulli, N: 4, Load: 1.5},
		{Kind: Bursty, N: 4, Load: 0.5, BurstLen: 0.5},
		{Kind: Hotspot, N: 4, Load: 0.5, HotFrac: 1.5},
		{Kind: Hotspot, N: 4, Load: 0.5, HotFrac: 0.5, HotPort: 9},
		{Kind: Trace, N: 4, Schedule: [][]int{{0, 1}}},
		{Kind: Trace, N: 4, Schedule: [][]int{{0, 1, 2, 9}}},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	if err := (Config{Kind: Trace, N: 4}).Validate(); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
}

// slotStream is the slot-level arrival process of the §2 models: a cell
// stream of one-word cells, so each Heads call is one slot and its count is
// the slot's arrivals.
func slotStream(t *testing.T, cfg Config) *CellStream {
	t.Helper()
	s, err := NewCellStream(cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func measureLoad(t *testing.T, cfg Config, slots int) (load float64, dstCounts []int) {
	t.Helper()
	s := slotStream(t, cfg)
	dst := make([]int, cfg.N)
	dstCounts = make([]int, cfg.N)
	arrivals := 0
	for slot := 0; slot < slots; slot++ {
		arrivals += s.Heads(dst)
		for _, d := range dst {
			if d != NoArrival {
				dstCounts[d]++
			}
		}
	}
	return float64(arrivals) / float64(slots*cfg.N), dstCounts
}

func TestBernoulliLoadAndUniformity(t *testing.T) {
	cfg := Config{Kind: Bernoulli, N: 8, Load: 0.6, Seed: 42}
	load, dsts := measureLoad(t, cfg, 200_000)
	if math.Abs(load-0.6) > 0.005 {
		t.Fatalf("measured load %v, want ≈0.6", load)
	}
	total := 0
	for _, c := range dsts {
		total += c
	}
	for d, c := range dsts {
		frac := float64(c) / float64(total)
		if math.Abs(frac-1.0/8) > 0.01 {
			t.Fatalf("destination %d got fraction %v, want ≈0.125", d, frac)
		}
	}
}

func TestBurstyLoadAndBurstStructure(t *testing.T) {
	cfg := Config{Kind: Bursty, N: 4, Load: 0.5, BurstLen: 10, Seed: 7}
	s := slotStream(t, cfg)
	dst := make([]int, cfg.N)
	const slots = 400_000
	arrivals := 0
	// Track burst statistics on input 0: a burst is a maximal run of
	// consecutive busy slots with the same destination.
	var bursts, burstCells int
	prev := NoArrival
	for slot := 0; slot < slots; slot++ {
		arrivals += s.Heads(dst)
		d := dst[0]
		if d != NoArrival {
			burstCells++
			// A burst ends at an idle slot or (rarely) at a destination
			// change when two bursts happen back-to-back with a zero
			// idle gap — both start a new run here.
			if prev == NoArrival || d != prev {
				bursts++
			}
		}
		prev = d
	}
	load := float64(arrivals) / float64(slots*cfg.N)
	if math.Abs(load-0.5) > 0.01 {
		t.Fatalf("measured load %v, want ≈0.5", load)
	}
	meanBurst := float64(burstCells) / float64(bursts)
	if math.Abs(meanBurst-10) > 1.0 {
		t.Fatalf("mean burst length %v, want ≈10", meanBurst)
	}
}

func TestHotspotFraction(t *testing.T) {
	cfg := Config{Kind: Hotspot, N: 8, Load: 0.5, HotFrac: 0.3, HotPort: 2, Seed: 3}
	load, dsts := measureLoad(t, cfg, 200_000)
	if math.Abs(load-0.5) > 0.01 {
		t.Fatalf("measured load %v", load)
	}
	total := 0
	for _, c := range dsts {
		total += c
	}
	// Hot port receives HotFrac + (1-HotFrac)/N of the traffic.
	wantHot := 0.3 + 0.7/8
	gotHot := float64(dsts[2]) / float64(total)
	if math.Abs(gotHot-wantHot) > 0.01 {
		t.Fatalf("hot port fraction %v, want ≈%v", gotHot, wantHot)
	}
}

func TestSaturationAlwaysArrives(t *testing.T) {
	s := slotStream(t, Config{Kind: Saturation, N: 4, Seed: 1})
	dst := make([]int, 4)
	for slot := 0; slot < 1000; slot++ {
		if got := s.Heads(dst); got != 4 {
			t.Fatalf("slot %d: %d arrivals, want 4", slot, got)
		}
	}
}

// TestGeneratorDeterminism: the slot-level arrival process is a function of
// its seed — two streams built from one config agree in every slot.
func TestGeneratorDeterminism(t *testing.T) {
	cfg := Config{Kind: Bernoulli, N: 4, Load: 0.7, Seed: 99}
	s1, s2 := slotStream(t, cfg), slotStream(t, cfg)
	a, b := make([]int, 4), make([]int, 4)
	for slot := 0; slot < 10_000; slot++ {
		s1.Heads(a)
		s2.Heads(b)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("slot %d input %d: %d vs %d", slot, i, a[i], b[i])
			}
		}
	}
}

// TestCellStreamLoadAndSpacing: heads keep the cell-length spacing, the link
// utilization meets Load and destinations are uniform — for the slot-level
// models' one-word cells as for the RTL's sixteen-word ones. A saturated
// stream starts a cell the moment its link comes free.
func TestCellStreamLoadAndSpacing(t *testing.T) {
	const n = 4
	for _, k := range []int{1, 16} {
		for _, p := range []float64{0.2, 0.5, 0.9, 1.0} {
			cfg := Config{Kind: Bernoulli, N: n, Load: p, Seed: 11}
			if p == 1.0 {
				cfg.Kind = Saturation
			}
			s, err := NewCellStream(cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int, n)
			const cycles = 300_000
			heads := 0
			last := make([]int, n)
			for i := range last {
				last[i] = -k
			}
			dsts := make([]int, n)
			for c := 0; c < cycles; c++ {
				s.Heads(dst)
				for i, d := range dst {
					if d == NoArrival {
						continue
					}
					heads++
					dsts[d]++
					if c-last[i] < k {
						t.Fatalf("k=%d: input %d: heads %d and %d closer than cell length %d", k, i, last[i], c, k)
					}
					last[i] = c
				}
			}
			util := float64(heads*k) / float64(cycles*n)
			if math.Abs(util-p) > 0.02 {
				t.Fatalf("k=%d load %v: measured utilization %v", k, p, util)
			}
			if cfg.Kind == Saturation && heads*k != cycles*n {
				t.Fatalf("k=%d: saturated stream started %d cells in %d cycles on %d links", k, heads, cycles, n)
			}
			for d, c := range dsts {
				if frac := float64(c) / float64(heads); math.Abs(frac-1.0/n) > 0.015 {
					t.Fatalf("k=%d load %v: destination %d got fraction %v, want ≈%v", k, p, d, frac, 1.0/n)
				}
			}
		}
	}
}

func TestCellStreamHeadRateMatchesSection34(t *testing.T) {
	// §3.4: the probability of a head appearing on a given link in a given
	// cycle is p/2n for cells of 2n words.
	const n, p = 8, 0.4
	cfg := Config{Kind: Bernoulli, N: n, Load: p, Seed: 5}
	s, err := NewCellStream(cfg, 2*n)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, n)
	const cycles = 500_000
	heads := 0
	for c := 0; c < cycles; c++ {
		heads += s.Heads(dst)
	}
	got := float64(heads) / float64(cycles*n)
	want := p / float64(2*n)
	if math.Abs(got-want)/want > 0.05 {
		t.Fatalf("head rate %v, want ≈%v", got, want)
	}
}

func TestCellStreamRejectsUnsupportedKinds(t *testing.T) {
	// Bursty and Hotspot streams are supported (see dist_test.go for
	// their distribution checks); invalid configs must still be refused.
	if _, err := NewCellStream(Config{Kind: Bursty, N: 4, Load: 0.5, BurstLen: 4}, 8); err != nil {
		t.Fatalf("bursty cell stream rejected: %v", err)
	}
	if _, err := NewCellStream(Config{Kind: Hotspot, N: 4, Load: 0.5, HotFrac: 0.5}, 8); err != nil {
		t.Fatalf("hotspot cell stream rejected: %v", err)
	}
	if _, err := NewCellStream(Config{Kind: Bursty, N: 4, Load: 0.5, BurstLen: 0.5}, 8); err == nil {
		t.Fatal("sub-cell burst length should be rejected")
	}
	if _, err := NewCellStream(Config{Kind: Bernoulli, N: 4, Load: 0.5}, 0); err == nil {
		t.Fatal("zero cell length should be rejected")
	}
}

func TestCellStreamDestinationsInRangeQuick(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		n := 2 + int(nRaw%15)
		cfg := Config{Kind: Saturation, N: n, Seed: seed}
		s, err := NewCellStream(cfg, 2*n)
		if err != nil {
			return false
		}
		dst := make([]int, n)
		for c := 0; c < 200; c++ {
			s.Heads(dst)
			for _, d := range dst {
				if d != NoArrival && (d < 0 || d >= n) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestCellStreamTrace: NewCellStream accepted Trace configs but Heads
// never produced their arrivals — the stream was silently empty. Each
// schedule slot must now occupy one cell time per input, emitting the
// scheduled head or a full idle cell time; past the schedule the stream
// stays idle. With one-word cells that is one schedule row per cycle.
func TestCellStreamTrace(t *testing.T) {
	sched := [][]int{
		{1, NoArrival},
		{NoArrival, 0},
		{NoArrival, NoArrival},
		{0, 1},
	}
	for _, cellLen := range []int{1, 4} {
		cs, err := NewCellStream(Config{Kind: Trace, N: 2, Schedule: sched}, cellLen)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, 2)
		for c := 0; c < 8*cellLen; c++ {
			nh := cs.Heads(dst)
			slot, phase := c/cellLen, c%cellLen
			want := [2]int{NoArrival, NoArrival}
			if phase == 0 && slot < len(sched) {
				want = [2]int{sched[slot][0], sched[slot][1]}
			}
			wantN := 0
			for _, d := range want {
				if d != NoArrival {
					wantN++
				}
			}
			if got := [2]int{dst[0], dst[1]}; got != want || nh != wantN {
				t.Fatalf("k=%d cycle %d: %d heads %v, want %d %v", cellLen, c, nh, got, wantN, want)
			}
		}
	}
}
