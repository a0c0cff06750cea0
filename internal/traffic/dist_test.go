package traffic

import (
	"math"
	"testing"
)

// Distribution-level checks for the non-uniform workloads: the Hotspot
// and Bursty processes must reproduce their configured statistics, not
// merely pass config validation.

// TestHotspotDistribution measures the slot-level Hotspot process: the
// hot port's share of destinations must be HotFrac + (1-HotFrac)/N (the
// biased fraction plus its share of the uniform remainder) and the cold
// ports must split the rest evenly.
func TestHotspotDistribution(t *testing.T) {
	const n, load, hotFrac, hotPort = 8, 0.6, 0.4, 3
	cfg := Config{Kind: Hotspot, N: n, Load: load, HotFrac: hotFrac, HotPort: hotPort, Seed: 91}
	gotLoad, dsts := measureLoad(t, cfg, 300_000)
	if math.Abs(gotLoad-load) > 0.005 {
		t.Fatalf("measured load %v, want ≈%v", gotLoad, load)
	}
	total := 0
	for _, c := range dsts {
		total += c
	}
	wantHot := hotFrac + (1-hotFrac)/n
	if got := float64(dsts[hotPort]) / float64(total); math.Abs(got-wantHot) > 0.01 {
		t.Fatalf("hot port fraction %v, want ≈%v", got, wantHot)
	}
	wantCold := (1 - hotFrac) / n
	for d, c := range dsts {
		if d == hotPort {
			continue
		}
		if got := float64(c) / float64(total); math.Abs(got-wantCold) > 0.01 {
			t.Fatalf("cold port %d fraction %v, want ≈%v", d, got, wantCold)
		}
	}
}

// TestBurstyBurstLengthDistribution checks the shape of the slot-level
// burst-length law, not just its mean: lengths are geometric with mean
// BurstLen, so the fraction of single-cell bursts must be 1/BurstLen and
// the mean of the measured lengths must match.
func TestBurstyBurstLengthDistribution(t *testing.T) {
	const n, load, burstLen = 4, 0.4, 6.0
	s := slotStream(t, Config{Kind: Bursty, N: n, Load: load, BurstLen: burstLen, Seed: 17})
	dst := make([]int, n)
	// Measure maximal same-destination runs on every input.
	runLen := make([]int, n)
	prev := make([]int, n)
	for i := range prev {
		prev[i] = NoArrival
	}
	var bursts, cells, singles int
	endRun := func(i int) {
		if runLen[i] > 0 {
			bursts++
			cells += runLen[i]
			if runLen[i] == 1 {
				singles++
			}
			runLen[i] = 0
		}
	}
	for slot := 0; slot < 600_000; slot++ {
		s.Heads(dst)
		for i, d := range dst {
			if d == NoArrival || (prev[i] != NoArrival && d != prev[i]) {
				endRun(i)
			}
			if d != NoArrival {
				runLen[i]++
			}
			prev[i] = d
		}
	}
	for i := range runLen {
		endRun(i)
	}
	if bursts < 5_000 {
		t.Fatalf("only %d bursts observed; test is underpowered", bursts)
	}
	if mean := float64(cells) / float64(bursts); math.Abs(mean-burstLen) > 0.3 {
		t.Fatalf("mean burst length %v, want ≈%v", mean, burstLen)
	}
	// Geometric law: P(L = 1) = 1/mean.
	if frac := float64(singles) / float64(bursts); math.Abs(frac-1/burstLen) > 0.02 {
		t.Fatalf("single-cell burst fraction %v, want ≈%v", frac, 1/burstLen)
	}
}

// TestCellStreamHotspotDistribution: heads keep the K-cycle spacing, the
// link utilization meets Load, the hot port's share of destinations is
// HotFrac + (1-HotFrac)/N (the biased fraction plus its share of the uniform
// remainder) and the cold ports split the rest evenly — at K = 1, the slot
// process of the §2 models, as at the RTL's K = 16.
func TestCellStreamHotspotDistribution(t *testing.T) {
	const n, load, hotFrac, hotPort = 8, 0.7, 0.5, 0
	for _, k := range []int{1, 16} {
		s, err := NewCellStream(Config{Kind: Hotspot, N: n, Load: load, HotFrac: hotFrac, HotPort: hotPort, Seed: 23}, k)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, n)
		dsts := make([]int, n)
		last := make([]int, n)
		for i := range last {
			last[i] = -k
		}
		const cycles = 400_000
		heads := 0
		for c := 0; c < cycles; c++ {
			s.Heads(dst)
			for i, d := range dst {
				if d == NoArrival {
					continue
				}
				heads++
				dsts[d]++
				if c-last[i] < k {
					t.Fatalf("k=%d: input %d: heads %d cycles apart", k, i, c-last[i])
				}
				last[i] = c
			}
		}
		if util := float64(heads*k) / float64(cycles*n); math.Abs(util-load) > 0.02 {
			t.Fatalf("k=%d: utilization %v, want ≈%v", k, util, load)
		}
		wantHot := hotFrac + (1-hotFrac)/n
		if got := float64(dsts[hotPort]) / float64(heads); math.Abs(got-wantHot) > 0.015 {
			t.Fatalf("k=%d: hot port fraction %v, want ≈%v", k, got, wantHot)
		}
		wantCold := (1 - hotFrac) / n
		for d, c := range dsts {
			if got := float64(c) / float64(heads); d != hotPort && math.Abs(got-wantCold) > 0.01 {
				t.Fatalf("k=%d: cold port %d fraction %v, want ≈%v", k, d, got, wantCold)
			}
		}
	}
}

// TestCellStreamBurstyDistribution: bursts on a word-serial link are
// back-to-back cells (heads exactly K cycles apart) on one destination. The
// utilization must meet Load, and burst lengths must follow the geometric
// law, not just its mean: the mean is BurstLen and the fraction of
// single-cell bursts 1/BurstLen. Two bursts that abut on one destination
// read as one, which biases both figures slightly; the tolerances allow it.
func TestCellStreamBurstyDistribution(t *testing.T) {
	const n, load, burstLen = 4, 0.4, 6.0
	for _, k := range []int{1, 8} {
		s, err := NewCellStream(Config{Kind: Bursty, N: n, Load: load, BurstLen: burstLen, Seed: 29}, k)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, n)
		last := make([]int, n)
		lastDst := make([]int, n)
		runLen := make([]int, n)
		for i := range last {
			last[i] = -2 * k
			lastDst[i] = NoArrival
		}
		var bursts, cells, singles int
		endRun := func(i int) {
			if runLen[i] > 0 {
				bursts++
				cells += runLen[i]
				if runLen[i] == 1 {
					singles++
				}
			}
		}
		const cycles = 800_000
		heads := 0
		for c := 0; c < cycles; c++ {
			s.Heads(dst)
			for i, d := range dst {
				if d == NoArrival {
					continue
				}
				heads++
				if c-last[i] < k {
					t.Fatalf("k=%d: input %d: heads %d cycles apart", k, i, c-last[i])
				}
				// Back-to-back with the same destination continues a burst;
				// anything else starts a new one.
				if c-last[i] == k && d == lastDst[i] {
					runLen[i]++
				} else {
					endRun(i)
					runLen[i] = 1
				}
				last[i], lastDst[i] = c, d
			}
		}
		for i := range runLen {
			endRun(i)
		}
		if util := float64(heads*k) / float64(cycles*n); math.Abs(util-load) > 0.02 {
			t.Fatalf("k=%d: utilization %v, want ≈%v", k, util, load)
		}
		if bursts < 5_000 {
			t.Fatalf("k=%d: only %d bursts observed; test is underpowered", k, bursts)
		}
		if mean := float64(cells) / float64(bursts); math.Abs(mean-burstLen) > 0.35 {
			t.Fatalf("k=%d: mean burst length %v, want ≈%v", k, mean, burstLen)
		}
		if frac := float64(singles) / float64(bursts); math.Abs(frac-1/burstLen) > 0.02 {
			t.Fatalf("k=%d: single-cell burst fraction %v, want ≈%v", k, frac, 1/burstLen)
		}
	}
}
