package traffic

import (
	"fmt"
	"testing"
)

// headsBenchSpecs are the regimes of the per-cycle cost of a stream. The
// first four are an 8-port switch with 16-word cells: almost every cycle
// dead (the lookahead's case), a start drawn on most link-cycles with gaps
// of two or three (where a lookahead must not cost more than the loop it
// replaces), the middle, and the kind that never draws a start. The slot/
// rows are one slot of the §2 slot-level models: 16 ports, one-word cells.
var headsBenchSpecs = []struct {
	name string
	cfg  Config
	k    int
}{
	{"bursty0.05", Config{Kind: Bursty, N: 8, Load: 0.05, BurstLen: 8, Seed: 42}, 16},
	{"hotspot0.9", Config{Kind: Hotspot, N: 8, Load: 0.9, HotFrac: 0.5, Seed: 42}, 16},
	{"bernoulli0.5", Config{Kind: Bernoulli, N: 8, Load: 0.5, Seed: 42}, 16},
	{"saturation", Config{Kind: Saturation, N: 8, Seed: 42}, 16},
	{"slot/saturation", Config{Kind: Saturation, N: 16, Seed: 42}, 1},
	{"slot/bernoulli0.2", Config{Kind: Bernoulli, N: 16, Load: 0.2, Seed: 42}, 1},
	{"slot/bernoulli0.8", Config{Kind: Bernoulli, N: 16, Load: 0.8, Seed: 42}, 1},
}

var headsSink int

// BenchmarkCellStreamHeads is one Heads call per op.
func BenchmarkCellStreamHeads(b *testing.B) {
	for _, spec := range headsBenchSpecs {
		b.Run(spec.name, func(b *testing.B) {
			s, err := NewCellStream(spec.cfg, spec.k)
			if err != nil {
				b.Fatal(err)
			}
			dst := make([]int, spec.cfg.N)
			b.ReportAllocs()
			b.ResetTimer()
			n := 0
			for i := 0; i < b.N; i++ {
				n += s.Heads(dst)
			}
			headsSink = n
		})
	}
}

// Heads must not allocate in any regime: it runs once per simulated cycle
// under every driver.
func TestHeadsZeroAlloc(t *testing.T) {
	for _, spec := range headsBenchSpecs {
		s, err := NewCellStream(spec.cfg, spec.k)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, spec.cfg.N)
		if avg := testing.AllocsPerRun(20, func() {
			for c := 0; c < 5000; c++ {
				s.Heads(dst)
			}
		}); avg != 0 {
			t.Errorf("%s: %.1f allocations per 5000 Heads calls, want 0", spec.name, avg)
		}
	}
}

// BenchmarkFirstBelow is one firstBelow scan per op on each path — the
// two-lane Go loop and, where the CPU has it, the eight-lane kernel — at
// the sparse stream's start probability (bursty 0.05 above, ≈ 0.0004), over
// runs of 16, 64 and 2048 draws: the lookahead's runs are up to 2048 long
// and end early at a hit. ns/draw is per draw consumed, the hit included;
// the kernel's minimum run, wideMin, is where its ns/draw drops below the
// loop's.
func BenchmarkFirstBelow(b *testing.B) {
	s, err := NewCellStream(headsBenchSpecs[0].cfg, headsBenchSpecs[0].k)
	if err != nil {
		b.Fatal(err)
	}
	thr := s.startThr
	paths := []struct {
		name string
		scan func(*pcg, uint64, int) int
	}{
		{"lanes", (*pcg).firstBelowLanes},
		{"wide", (*pcg).firstBelowWide},
	}
	for _, path := range paths {
		for _, n := range []int{16, 64, 2048} {
			b.Run(fmt.Sprintf("%s/n=%d", path.name, n), func(b *testing.B) {
				if path.name == "wide" && !haveWide {
					b.Skip(whyNoWide)
				}
				p := pcg{2024, 16}
				draws := 0
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					draws += min(path.scan(&p, thr, n)+1, n)
				}
				headsSink = draws
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(draws), "ns/draw")
			})
		}
	}
}
