package core

import (
	"testing"

	"pipemem/internal/cell"
)

func mcast(seq uint64, src, dst, k int, copies ...int) *cell.Cell {
	c := cell.New(seq, src, dst, k, 16)
	c.Copies = copies
	return c
}

// TestMulticastAllCopiesDelivered: one stored cell, one copy per
// destination, all bit-exact.
func TestMulticastAllCopiesDelivered(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	k := s.Config().Stages
	c := mcast(1, 0, 1, k, 2, 3)
	s.Tick([]*cell.Cell{c, nil, nil, nil})
	for i := 0; i < 6*k; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 3 {
		t.Fatalf("%d copies delivered, want 3", len(deps))
	}
	outs := map[int]bool{}
	for _, d := range deps {
		if !d.Cell.Equal(d.Expected) {
			t.Fatal("multicast copy corrupted")
		}
		if outs[d.Output] {
			t.Fatalf("output %d served twice", d.Output)
		}
		outs[d.Output] = true
	}
	for _, o := range []int{1, 2, 3} {
		if !outs[o] {
			t.Fatalf("output %d missed its copy", o)
		}
	}
}

// TestMulticastSingleAddress: the payload occupies exactly one buffer
// address regardless of fanout — the shared-buffer multicast economy —
// and the address frees only after the last copy's read wave.
func TestMulticastSingleAddress(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	k := s.Config().Stages
	c := mcast(1, 0, 1, k, 2, 3)
	s.Tick([]*cell.Cell{c, nil, nil, nil})
	s.Tick(nil) // write wave initiated here
	if got := s.cfg.Cells - s.FreeCells(); got != 1 {
		t.Fatalf("%d addresses allocated for a 3-way multicast, want 1", got)
	}
	if s.Buffered() != 3 {
		t.Fatalf("%d descriptors queued, want 3", s.Buffered())
	}
	// Run until all copies depart; the address must be free again.
	for i := 0; i < 8*k; i++ {
		s.Tick(nil)
	}
	if got := len(s.Drain()); got != 3 {
		t.Fatalf("%d departures", got)
	}
	if s.FreeCells() != s.cfg.Cells {
		t.Fatalf("address leaked: %d free of %d", s.FreeCells(), s.cfg.Cells)
	}
}

// TestMulticastStaggeredReads: the copies go out one initiation at a
// time (staggered initiation applies to multicast too), so head
// departure times on the three links are distinct.
func TestMulticastStaggeredReads(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	k := s.Config().Stages
	s.Tick([]*cell.Cell{mcast(1, 0, 1, k, 2, 3), nil, nil, nil})
	for i := 0; i < 8*k; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	seen := map[int64]bool{}
	for _, d := range deps {
		if seen[d.HeadOut] {
			t.Fatalf("two copies' heads left in the same cycle %d", d.HeadOut)
		}
		seen[d.HeadOut] = true
	}
}

// TestMulticastUnderUnicastLoad: multicast cells interleaved with
// unicast traffic conserve addresses and deliver everything.
func TestMulticastUnderUnicastLoad(t *testing.T) {
	const ports = 4
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 64, CutThrough: true})
	k := s.Config().Stages
	var seq uint64
	wantCopies := 0
	got := 0
	for c := int64(0); c < 400*int64(k); c++ {
		var heads []*cell.Cell
		if c%int64(k) == 0 {
			heads = make([]*cell.Cell, ports)
			// Input 0 multicasts to all outputs every other cell time;
			// input 1 unicasts continuously.
			if (c/int64(k))%2 == 0 {
				seq++
				heads[0] = mcast(seq, 0, 0, k, 1, 2, 3)
				wantCopies += 4
			}
			seq++
			heads[1] = cell.New(seq, 1, int(seq)%ports, k, 16)
			wantCopies++
		}
		s.Tick(heads)
		for _, d := range s.Drain() {
			if !d.Cell.Equal(d.Expected) {
				t.Fatal("corruption")
			}
			got++
		}
	}
	for i := 0; i < 40*k; i++ {
		s.Tick(nil)
		got += len(s.Drain())
	}
	if got != wantCopies {
		t.Fatalf("delivered %d copies, want %d", got, wantCopies)
	}
	if s.FreeCells() != 64 {
		t.Fatalf("address leak: %d free of 64", s.FreeCells())
	}
	if c := s.counts.Corrupt; c != 0 {
		t.Fatalf("%d corrupt", c)
	}
}

// TestTickZeroAllocMulticast: three-way multicast at full offered load
// queues up to three descriptors per address, so the descriptor pool grows
// past its initial one node per address; once it has reached its
// high-water mark, the steady state allocates nothing. Cells are reused
// once their last copy departs (Seq indexes them), and an input offers a
// head only while the buffer has an address for every input, so nothing is
// lost.
func TestTickZeroAllocMulticast(t *testing.T) {
	const n = 8
	s := mustSwitch(t, Config{Ports: n, WordBits: 16, Cells: 32, CutThrough: true})
	s.SetDrainRecycle(true)
	s.SetDropCellHook(func(*cell.Cell) { t.Fatal("a cell was lost") })
	k := s.Config().Stages
	cells := make([]*cell.Cell, 8*s.Config().Cells)
	left := make([]int, len(cells))
	var free []int
	for i := range cells {
		cells[i] = mcast(uint64(i), 0, 0, k, 0, 0)
		free = append(free, i)
	}
	heads := make([]*cell.Cell, n)
	c := 0
	tick := func() {
		var h []*cell.Cell
		if c%k == 0 && s.FreeCells() >= n {
			h = heads
			for i := range heads {
				x := cells[free[len(free)-1]]
				free = free[:len(free)-1]
				x.Src, x.Dst = i, (i+c/k)%n
				x.Copies[0], x.Copies[1] = (x.Dst+1)%n, (x.Dst+3)%n
				left[x.Seq] = 3
				heads[i] = x
			}
		}
		s.Tick(h)
		for _, d := range s.Drain() {
			if left[d.Expected.Seq]--; left[d.Expected.Seq] == 0 {
				free = append(free, int(d.Expected.Seq))
			}
		}
		c++
	}
	for i := 0; i < 64*k; i++ {
		tick()
	}
	if len(s.nodes) <= s.Config().Cells {
		t.Fatalf("descriptor pool still %d nodes for %d addresses; the drive queues too few copies to test growth", len(s.nodes), s.Config().Cells)
	}
	// One run of a whole window: any allocation in it fails the test.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 2000; i++ {
			tick()
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations over 2000 multicast cycles at the pool's high-water mark, want 0", allocs)
	}
	if err := s.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
	if got := s.counts.Corrupt; got != 0 {
		t.Fatalf("%d corrupt copies", got)
	}
}

// TestMulticastOutOfRangeCopyPanics.
func TestMulticastOutOfRangeCopyPanics(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Tick([]*cell.Cell{mcast(1, 0, 1, k, 7), nil})
	for i := 0; i < 2*k; i++ {
		s.Tick(nil)
	}
}
