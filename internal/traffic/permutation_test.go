package traffic

import (
	"math"
	"testing"
)

// TestPermutationSlotAdmissibility: in every slot, the active arrivals
// target distinct outputs — no output is ever oversubscribed, which is
// what makes the pattern sustainable at load 1.
func TestPermutationSlotAdmissibility(t *testing.T) {
	s := slotStream(t, Config{Kind: Permutation, N: 8, Load: 1, Seed: 3})
	dst := make([]int, 8)
	for slot := 0; slot < 10_000; slot++ {
		n := s.Heads(dst)
		if n != 8 {
			t.Fatalf("slot %d: %d arrivals at full rate, want 8", slot, n)
		}
		seen := make([]bool, 8)
		for _, d := range dst {
			if seen[d] {
				t.Fatalf("slot %d: output %d oversubscribed", slot, d)
			}
			seen[d] = true
		}
	}
}

// TestPermutationDefaultsToFullRate: Load 0 means 1.
func TestPermutationDefaultsToFullRate(t *testing.T) {
	s := slotStream(t, Config{Kind: Permutation, N: 4, Seed: 5})
	dst := make([]int, 4)
	if got := s.Heads(dst); got != 4 {
		t.Fatalf("%d arrivals, want 4", got)
	}
}

// TestPermutationThinned: below full rate, the measured slot load matches
// and destinations stay balanced.
func TestPermutationThinned(t *testing.T) {
	load, counts := measureLoad(t, Config{Kind: Permutation, N: 8, Load: 0.5, Seed: 7}, 100_000)
	if math.Abs(load-0.5) > 0.01 {
		t.Fatalf("measured load %v", load)
	}
	arrivals := 0
	for _, c := range counts {
		arrivals += c
	}
	for o, c := range counts {
		frac := float64(c) / float64(arrivals)
		if math.Abs(frac-0.125) > 0.01 {
			t.Fatalf("output %d got fraction %v", o, frac)
		}
	}
}

// TestPermutationRotates: over n consecutive slots each input covers all
// n outputs exactly once.
func TestPermutationRotates(t *testing.T) {
	const n = 4
	s := slotStream(t, Config{Kind: Permutation, N: n, Load: 1, Seed: 9})
	dst := make([]int, n)
	seen := make([]map[int]bool, n)
	for i := range seen {
		seen[i] = map[int]bool{}
	}
	for slot := 0; slot < n; slot++ {
		s.Heads(dst)
		for i, d := range dst {
			if seen[i][d] {
				t.Fatalf("input %d repeated output %d within one rotation", i, d)
			}
			seen[i][d] = true
		}
	}
	for i := range seen {
		if len(seen[i]) != n {
			t.Fatalf("input %d covered %d outputs in %d slots", i, len(seen[i]), n)
		}
	}
}

// TestCellStreamPermutationAdmissible: at full rate the heads form
// rotating permutations in cell-time lockstep — every cell time all n
// inputs start a cell, no output is oversubscribed, and over n cell times
// each input covers every output once. Load 0 means full rate.
func TestCellStreamPermutationAdmissible(t *testing.T) {
	const n = 8
	for _, tc := range []struct {
		k    int
		load float64
	}{{16, 1}, {1, 0}} {
		k := tc.k
		s, err := NewCellStream(Config{Kind: Permutation, N: n, Load: tc.load, Seed: 11}, k)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, n)
		covered := make([]map[int]bool, n)
		for c := 0; c < 50*k; c++ {
			nh := s.Heads(dst)
			if c%k != 0 {
				if nh != 0 {
					t.Fatalf("k=%d cycle %d: head mid-cell", k, c)
				}
				continue
			}
			if nh != n {
				t.Fatalf("k=%d cycle %d: %d heads, want %d (lockstep)", k, c, nh, n)
			}
			if c%(n*k) == 0 {
				for i := range covered {
					covered[i] = map[int]bool{}
				}
			}
			seen := make([]bool, n)
			for i, d := range dst {
				if seen[d] {
					t.Fatalf("k=%d cycle %d: output %d oversubscribed", k, c, d)
				}
				seen[d] = true
				if covered[i][d] {
					t.Fatalf("k=%d cycle %d: input %d repeated output %d within one rotation", k, c, i, d)
				}
				covered[i][d] = true
			}
		}
	}
}

// TestCellStreamPermutationThinned: sub-full-rate permutation streams meet
// the load, never start a head mid-cell and keep destinations balanced.
func TestCellStreamPermutationThinned(t *testing.T) {
	const n, load = 4, 0.6
	for _, k := range []int{1, 8} {
		s, err := NewCellStream(Config{Kind: Permutation, N: n, Load: load, Seed: 13}, k)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, n)
		last := make([]int, n)
		for i := range last {
			last[i] = -k
		}
		counts := make([]int, n)
		heads := 0
		const cycles = 200_000
		for c := 0; c < cycles; c++ {
			s.Heads(dst)
			for i, d := range dst {
				if d == NoArrival {
					continue
				}
				heads++
				counts[d]++
				if c-last[i] < k {
					t.Fatalf("k=%d: input %d: heads %d apart", k, i, c-last[i])
				}
				last[i] = c
			}
		}
		if util := float64(heads*k) / float64(cycles*n); math.Abs(util-load) > 0.02 {
			t.Fatalf("k=%d: utilization %v, want ≈%v", k, util, load)
		}
		for o, c := range counts {
			if frac := float64(c) / float64(heads); math.Abs(frac-1.0/n) > 0.015 {
				t.Fatalf("k=%d: output %d got fraction %v", k, o, frac)
			}
		}
	}
}

// TestKindString covers the Stringer.
func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		Bernoulli:   "bernoulli",
		Bursty:      "bursty",
		Hotspot:     "hotspot",
		Saturation:  "saturation",
		Permutation: "permutation",
		Trace:       "trace",
		Kind(99):    "Kind(99)",
	} {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

// TestStepPanicsOnWrongLength: a slot-level stream refuses a destination
// vector that is not one entry per input.
func TestStepPanicsOnWrongLength(t *testing.T) {
	s := slotStream(t, Config{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 1})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Heads(make([]int, 3))
}

// TestHeadsPanicsOnWrongLength covers the guard rail.
func TestHeadsPanicsOnWrongLength(t *testing.T) {
	s, _ := NewCellStream(Config{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 1}, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Heads(make([]int, 5))
}
