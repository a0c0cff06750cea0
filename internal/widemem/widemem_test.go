package widemem

import (
	"errors"
	"testing"
	"testing/quick"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

func mustSwitch(t *testing.T, cfg Config) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stream(t *testing.T, cfg traffic.Config, k int) *traffic.CellStream {
	t.Helper()
	cs, err := traffic.NewCellStream(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestValidate(t *testing.T) {
	if err := (Config{Ports: 4, WordBits: 16, Cells: 32}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []Config{
		{Ports: 0},
		{Ports: 4, CellWords: 4}, // < 2n
		{Ports: 4, WordBits: 99},
	} {
		if err := c.Validate(); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("bad config %d: got %v, want ErrBadConfig", i, err)
		}
	}
}

// TestStoreAndForwardTiming: without the bypass crossbar the head cannot
// leave before the cell is assembled, staged, written, and read back:
// exactly the §3.1 limitation ("a packet cannot be stored into the wide
// memory before all of it has arrived, and … cut-through must start before
// that time").
func TestStoreAndForwardTiming(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8})
	k := s.Config().CellWords // 4
	var got []*cell.Cell
	var lat int64
	s.SetDepartureSink(func(d *cell.Cell, _ int, headIn, headOut int64, _ bool) {
		got, lat = append(got, d), headOut-headIn
	})
	c := cell.New(1, 0, 1, k, 16)
	s.Tick([]*cell.Cell{c, nil})
	for i := 0; i < 5*k; i++ {
		s.Tick(nil)
	}
	if len(got) != 1 || got[0] != c {
		t.Fatalf("departures %v, want the one cell injected", got)
	}
	if s.CutThroughs() != 0 {
		t.Fatal("departure bypassed memory without a crossbar")
	}
	// Assembled end of cycle K-1, staged ready K, written at K, read at
	// K+1, head on link at K+2.
	if lat != int64(k)+2 {
		t.Fatalf("head latency %d, want %d", lat, k+2)
	}
}

// TestCutThroughCrossbar: with the bypass, an idle-output cell achieves the
// same 2-cycle head latency as the pipelined memory — at the cost of the
// extra datapath the pipelined organization does not need.
func TestCutThroughCrossbar(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThroughCrossbar: true})
	k := s.Config().CellWords
	var got []*cell.Cell
	var lat int64
	s.SetDepartureSink(func(d *cell.Cell, _ int, headIn, headOut int64, _ bool) {
		got, lat = append(got, d), headOut-headIn
	})
	c := cell.New(1, 0, 1, k, 16)
	s.Tick([]*cell.Cell{c, nil})
	for i := 0; i < 5*k; i++ {
		s.Tick(nil)
	}
	if len(got) != 1 || got[0] != c {
		t.Fatalf("departures %v, want the one cell injected", got)
	}
	if s.CutThroughs() != 1 {
		t.Fatal("idle-output cell did not use the bypass")
	}
	if lat != 2 {
		t.Fatalf("bypass head latency %d, want 2", lat)
	}
}

// TestIntegrityAndConservation under sustained random traffic, both modes.
func TestIntegrityAndConservation(t *testing.T) {
	for _, ct := range []bool{false, true} {
		for _, load := range []float64{0.5, 1.0} {
			s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 64, CutThroughCrossbar: ct})
			kind := traffic.Bernoulli
			if load == 1.0 {
				kind = traffic.Saturation
			}
			cs := stream(t, traffic.Config{Kind: kind, N: 4, Load: load, Seed: 3}, s.Config().CellWords)
			res, err := core.Run(s, cs, 20_000)
			if err != nil {
				t.Fatalf("ct=%v load=%v: %v", ct, load, err)
			}
			if res.Delivered == 0 {
				t.Fatalf("ct=%v load=%v: nothing delivered", ct, load)
			}
		}
	}
}

// TestFullLoadPermutation: the wide memory also sustains full admissible
// load (one access per cell time per port: n writes + n reads per 2n-word
// cell time fit the one-access-per-cycle budget when K = 2n).
func TestFullLoadPermutation(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 64})
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: 4, Load: 1, Seed: 9}, s.Config().CellWords)
	res, err := core.Run(s, cs, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d overruns at full admissible load: double buffering should prevent this", res.Dropped)
	}
	if res.Utilization < 0.95 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

// TestDoubleBufferingNeeded: the second row really is load-bearing — a
// cell completes assembly while the memory is busy reading, and survives.
func TestDoubleBufferingNeeded(t *testing.T) {
	// Saturate a 2-port switch: with both inputs sending back-to-back and
	// reads taking priority, writes regularly wait a few cycles after
	// assembly; zero overruns proves the staging row absorbs the wait.
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 32})
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: 2, Load: 1, Seed: 11}, s.Config().CellWords)
	res, err := core.Run(s, cs, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d overruns", res.Dropped)
	}
}

// TestRegisterCountComparison quantifies fig. 3 vs fig. 4: the wide memory
// needs twice the input latch rows of the pipelined memory.
func TestRegisterCountComparison(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 8, WordBits: 16, Cells: 64, CutThroughCrossbar: true})
	if got := s.InputLatchRows(); got != 16 {
		t.Fatalf("input latch rows = %d, want 2n = 16", got)
	}
	if !s.NeedsCutThroughCrossbar() {
		t.Fatal("cut-through configuration must report the extra crossbar")
	}
}

// TestQuick sweeps geometry.
func TestQuick(t *testing.T) {
	f := func(seed uint64, portsRaw, loadRaw uint8) bool {
		ports := 2 + int(portsRaw%7)
		load := 0.1 + float64(loadRaw%90)/100
		s, err := New(Config{Ports: ports, WordBits: 16, Cells: 32, CutThroughCrossbar: seed%2 == 0})
		if err != nil {
			return false
		}
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: load, Seed: seed}, s.Config().CellWords)
		if err != nil {
			return false
		}
		_, err = core.Run(s, cs, 3_000)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
