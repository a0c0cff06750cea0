package core

import (
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

func vcCell(seq uint64, src, dst, vc, k int) *cell.Cell {
	c := cell.New(seq, src, dst, k, 16)
	c.VC = vc
	return c
}

func TestVCConfigValidate(t *testing.T) {
	if got := (Config{Ports: 4}).Canonical().VCs; got != 1 {
		t.Fatalf("default VCs = %d, want 1", got)
	}
	if err := (Config{Ports: 4, VCs: -1}).Validate(); err == nil {
		t.Fatal("negative VCs accepted")
	}
	if err := (Config{Ports: 4, VCs: 4}).Validate(); err != nil {
		t.Fatalf("4 VCs rejected: %v", err)
	}
}

// TestVCBlockedChannelDoesNotBlockOthers is THE virtual-channel property
// ([KVES95], and the lane argument of [Dally90]): with VC 0's gate
// closed, cells on VC 1 to the same output keep flowing; a single FIFO
// per output could not do that.
func TestVCBlockedChannelDoesNotBlockOthers(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 16, CutThrough: true, VCs: 2})
	k := s.Config().Stages
	blocked := map[int]bool{0: true} // VC 0 has no credit
	s.SetVCGate(func(out, vc int) bool { return !blocked[vc] })

	// Input 0 sends a VC-0 cell, then input 1 a VC-1 cell, both to
	// output 1.
	var tick = func(heads []*cell.Cell) { s.Tick(heads) }
	tick([]*cell.Cell{vcCell(1, 0, 1, 0, k), nil})
	for i := 0; i < k; i++ {
		tick(nil)
	}
	tick([]*cell.Cell{nil, vcCell(2, 1, 1, 1, k)})
	for i := 0; i < 6*k; i++ {
		tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 1 {
		t.Fatalf("%d departures with VC0 blocked, want only the VC1 cell", len(deps))
	}
	if deps[0].VC != 1 || deps[0].Cell.Seq != 2 {
		t.Fatalf("wrong cell escaped: seq=%d vc=%d", deps[0].Cell.Seq, deps[0].VC)
	}
	if s.QueuedFor(1) != 1 {
		t.Fatalf("VC0 cell not parked: queued=%d", s.QueuedFor(1))
	}

	// Open VC 0: the parked cell leaves.
	delete(blocked, 0)
	for i := 0; i < 6*k; i++ {
		tick(nil)
	}
	deps = s.Drain()
	if len(deps) != 1 || deps[0].VC != 0 || deps[0].Cell.Seq != 1 {
		t.Fatalf("VC0 cell did not drain after gate opened: %+v", deps)
	}
}

// TestVCRoundRobinFairness: with both VCs backlogged on one output, the
// link alternates between them.
func TestVCRoundRobinFairness(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 32, CutThrough: true, VCs: 2})
	k := s.Config().Stages
	var seq uint64
	// Interleave arrivals: input 0 sends VC0 cells, input 1 VC1 cells,
	// all to output 0, back to back.
	counts := map[int]int{}
	var order []int
	for c := 0; c < 200*k; c++ {
		var heads []*cell.Cell
		if c%k == 0 {
			seq += 2
			heads = []*cell.Cell{vcCell(seq, 0, 0, 0, k), vcCell(seq+1, 1, 0, 1, k)}
		}
		s.Tick(heads)
		for _, d := range s.Drain() {
			counts[d.VC]++
			order = append(order, d.VC)
		}
	}
	if counts[0] == 0 || counts[1] == 0 {
		t.Fatalf("starved a VC: %v", counts)
	}
	ratio := float64(counts[0]) / float64(counts[1])
	if ratio < 0.8 || ratio > 1.25 {
		t.Fatalf("unfair VC service: %v", counts)
	}
	// Strict alternation once both are backlogged.
	same := 0
	for i := k; i < len(order); i++ { // skip the start-up transient
		if order[i] == order[i-1] {
			same++
		}
	}
	if same > len(order)/10 {
		t.Fatalf("VCs not alternating: %d repeats of %d", same, len(order))
	}
}

// TestVCIntegrityRandom: random VCs under load, bit-exact delivery, and
// per-VC FIFO order.
func TestVCIntegrityRandom(t *testing.T) {
	const ports, vcs = 4, 3
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 64, CutThrough: true, VCs: vcs})
	k := s.Config().Stages
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 33}, k)
	heads := make([]int, ports)
	hc := make([]*cell.Cell, ports)
	var seq uint64
	lastSeq := map[[2]int]uint64{} // (out, vc) → last departed seq per input? track per (src,out,vc)
	_ = lastSeq
	delivered := 0
	for c := 0; c < 30_000; c++ {
		cs.Heads(heads)
		for i := range hc {
			hc[i] = nil
			if heads[i] != traffic.NoArrival {
				seq++
				hc[i] = vcCell(seq, i, heads[i], int(seq)%vcs, k)
			}
		}
		s.Tick(hc)
		for _, d := range s.Drain() {
			delivered++
			if !d.Cell.Equal(d.Expected) {
				t.Fatal("corruption with VCs")
			}
			if d.VC != d.Expected.VC {
				t.Fatalf("VC mangled: %d vs %d", d.VC, d.Expected.VC)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("nothing delivered")
	}
	if got := s.counts.Corrupt; got != 0 {
		t.Fatalf("%d corrupt", got)
	}
}

// TestVCOutOfRangePanics: injecting a cell on a VC the switch does not
// have is a driver bug.
func TestVCOutOfRangePanics(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true, VCs: 2})
	k := s.Config().Stages
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Tick([]*cell.Cell{vcCell(1, 0, 1, 5, k), nil})
	for i := 0; i < 2*k; i++ {
		s.Tick(nil) // the write wave arbitration trips the check
	}
}
