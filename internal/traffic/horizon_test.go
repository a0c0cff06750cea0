package traffic

import (
	"reflect"
	"strings"
	"testing"
)

// horizonCase decodes fuzz bytes into a stream configuration: every kind
// that draws, thinned and full-rate permutations, saturation, over loads
// from almost idle to back-to-back.
func horizonCase(kind, load, burst, n, cellLen uint8, seed uint64) (Config, int) {
	kinds := []Kind{Bernoulli, Bursty, Hotspot, Permutation, Saturation}
	cfg := Config{
		Kind: kinds[int(kind)%len(kinds)],
		N:    2 + int(n)%15,
		// 255 is load 1; 0 a load at which nearly every lookahead runs into
		// its draw bound.
		Load:     max(float64(load), 0.001) / 255,
		BurstLen: 1 + float64(burst%32)/4,
		HotFrac:  float64(burst%5) / 4,
		Seed:     seed,
	}
	cfg.HotPort = int(burst) % cfg.N
	return cfg, 1 + int(cellLen)%20
}

// checkAgainstReference drives the stream beside the frozen per-cycle
// reference for cut+600 cycles, three ways: through Heads alone, through
// SkipDead first the way core.Runner does, and — from cycle cut on — as a
// stream restored from the State at cut. Before every cycle all States
// equal the reference's, byte for byte; on every cycle all head vectors do.
func checkAgainstReference(t *testing.T, cfg Config, cellLen, cut int) {
	t.Helper()
	ref, err := newRefStream(cfg, cellLen)
	if err != nil {
		t.Fatal(err)
	}
	live, _ := NewCellStream(cfg, cellLen)
	skipping, _ := NewCellStream(cfg, cellLen)
	var restored *CellStream
	want, got := make([]int, cfg.N), make([]int, cfg.N)
	for c := 0; c < cut+600; c++ {
		wantState, err := ref.State()
		if err != nil {
			t.Fatal(err)
		}
		if c == cut {
			// It starts at cycle 0 with no lookahead in flight, whatever
			// the original was in the middle of.
			st, _ := live.State()
			if restored, err = RestoreCellStream(cfg, cellLen, st); err != nil {
				t.Fatalf("cycle %d: restore: %v", c, err)
			}
		}
		streams := map[string]*CellStream{"Heads-driven": live, "SkipDead-driven": skipping, "restored": restored}
		for name, s := range streams {
			if s == nil {
				continue
			}
			if st, _ := s.State(); !reflect.DeepEqual(st, wantState) {
				t.Fatalf("cycle %d: %s state %+v, reference %+v", c, name, st, wantState)
			}
		}
		nw := ref.Heads(want)
		for name, s := range streams {
			if s == nil {
				continue
			}
			if s == skipping && s.SkipDead() {
				if nw != 0 {
					t.Fatalf("cycle %d: SkipDead skipped a cycle with heads %v", c, want)
				}
				continue
			}
			if ng := s.Heads(got); ng != nw || !reflect.DeepEqual(got, want) {
				t.Fatalf("cycle %d: %s heads %v (%d), reference %v (%d)", c, name, got, ng, want, nw)
			}
		}
	}
}

// FuzzCellStreamHorizon: heads and State bytes agree with the reference at
// every cycle — mid-gap, on the horizon cycle, past a lookahead cut short
// by its draw bound — and a restore at any cycle carries on in step.
func FuzzCellStreamHorizon(f *testing.F) {
	f.Add(uint8(1), uint8(13), uint8(28), uint8(6), uint8(15), uint64(42), uint16(1067)) // the sparse bursty spec, cut mid-gap
	f.Add(uint8(1), uint8(13), uint8(28), uint8(6), uint8(15), uint64(42), uint16(1076)) // cut on the horizon cycle, resume port 6
	f.Add(uint8(2), uint8(230), uint8(2), uint8(6), uint8(15), uint64(42), uint16(77))   // hotspot 0.9: never looks ahead
	f.Add(uint8(0), uint8(90), uint8(0), uint8(6), uint8(15), uint64(4), uint16(500))    // bernoulli 0.35: short lookaheads
	f.Add(uint8(0), uint8(0), uint8(0), uint8(1), uint8(0), uint64(3), uint16(2000))     // draw bound, cell length 1
	f.Add(uint8(0), uint8(255), uint8(0), uint8(2), uint8(7), uint64(5), uint16(10))     // load 1
	f.Add(uint8(3), uint8(180), uint8(0), uint8(3), uint8(4), uint64(9), uint16(50))     // thinned permutation
	f.Add(uint8(3), uint8(255), uint8(0), uint8(3), uint8(4), uint64(9), uint16(50))
	f.Add(uint8(4), uint8(0), uint8(0), uint8(0), uint8(3), uint64(1), uint16(5))
	f.Add(uint8(1), uint8(128), uint8(9), uint8(13), uint8(2), uint64(8), uint16(411))

	f.Fuzz(func(t *testing.T, kind, load, burst, n, cellLen uint8, seed uint64, cut uint16) {
		cfg, k := horizonCase(kind, load, burst, n, cellLen, seed)
		checkAgainstReference(t, cfg, k, int(cut)%2500)
	})
}

// The first two corpus entries of FuzzCellStreamHorizon are there because of
// where they cut; pin that they still cut there.
func TestHorizonCorpusCutsInsideAGap(t *testing.T) {
	cfg, k := horizonCase(1, 13, 28, 6, 15, 42)
	s, err := NewCellStream(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]int, cfg.N)
	for c := 0; c <= 1076; c++ {
		switch c {
		case 1067:
			if s.aheadFree == 0 || s.baseCycle > 1000 || s.horizon != 1076 || s.hit != 6 {
				t.Errorf("cycle 1067: lookahead from %d to %d (hit %d, %d links), want mid-gap on the way to 1076, hit 6",
					s.baseCycle, s.horizon, s.hit, s.aheadFree)
			}
		case 1076:
			if s.aheadFree == 0 || s.horizon != s.now || s.hit != 6 {
				t.Errorf("cycle 1076: horizon %d hit %d, want the horizon cycle with resume port 6", s.horizon, s.hit)
			}
		}
		s.Heads(dst)
	}
}

// A lookahead is bounded: however rarely a stream starts a cell, one Heads
// call draws ahead at most lookDraws draws' worth of cycles.
func TestLookaheadBounded(t *testing.T) {
	for _, n := range []int{2, 8, 1024} {
		s, err := NewCellStream(Config{Kind: Bernoulli, N: n, Load: 1e-15, Seed: 1}, 4)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int, n)
		far := int64(0)
		for c := 0; c < 20_000; c++ {
			s.Heads(dst)
			far = max(far, s.horizon-s.now)
		}
		if limit := int64(lookDraws/n + 1); far > limit || far < 1 {
			t.Errorf("N=%d: a lookahead ran %d cycles ahead, want 1..%d", n, far, limit)
		}
	}
}

// RestoreCellStream is a trust boundary — pmserve restores checkpoint files
// — so a state no stream could have exported is refused there instead of
// panicking some cycles into the run (a burst destination of 99 used to
// reach core as a cell for output 99; Sent = -5 indexed a Trace schedule).
func TestRestoreCellStreamRejectsImpossibleState(t *testing.T) {
	const k = 4
	bursty := Config{Kind: Bursty, N: 4, Load: 0.5, BurstLen: 4, Seed: 1}
	trace := Config{Kind: Trace, N: 4, Schedule: [][]int{{0, 1, 2, 3}}}
	cases := []struct {
		name   string
		cfg    Config
		mutate func(*StreamState)
		want   string // "" = must restore
	}{
		{"untouched", bursty, func(*StreamState) {}, ""},
		{"stale burst destination, no burst left", bursty, func(st *StreamState) { st.BurstDst[2] = 99 }, ""},
		{"busy up to the cell length", bursty, func(st *StreamState) { st.Busy[1] = k }, ""},
		{"burst destination out of range", bursty, func(st *StreamState) { st.BurstLeft[0], st.BurstDst[0] = 3, 99 }, "burst destination 99"},
		{"burst destination negative", bursty, func(st *StreamState) { st.BurstLeft[3], st.BurstDst[3] = 1, -1 }, "burst destination -1"},
		{"burst count negative", bursty, func(st *StreamState) { st.BurstLeft[1] = -2 }, "-2 cells left"},
		{"busy negative", bursty, func(st *StreamState) { st.Busy[0] = -1 }, "-1 busy cycles"},
		{"busy beyond the cell", bursty, func(st *StreamState) { st.Busy[3] = k + 1 }, "5 busy cycles"},
		{"sent negative", trace, func(st *StreamState) { st.Sent[0] = -5 }, "-5 cells sent"},
		{"rng truncated", bursty, func(st *StreamState) { st.RNG = st.RNG[:19] }, "PCG"},
		{"rng not a PCG encoding", bursty, func(st *StreamState) { st.RNG[0] = 'x' }, "PCG"},
		{"burst arrays missing", bursty, func(st *StreamState) { st.BurstLeft = nil }, "burst arrays"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := NewCellStream(tc.cfg, k)
			if err != nil {
				t.Fatal(err)
			}
			dst := make([]int, tc.cfg.N)
			for c := 0; c < 9; c++ {
				s.Heads(dst)
			}
			st, err := s.State()
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(st)
			r, err := RestoreCellStream(tc.cfg, k, st)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("restore refused a possible state: %v", err)
				}
				for c := 0; c < 50; c++ {
					r.Heads(dst) // must not panic
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("restore error %v, want one naming %q", err, tc.want)
			}
		})
	}
}
