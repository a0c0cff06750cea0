package sim

import (
	"pipemem/internal/arb"
	"pipemem/internal/fifo"
)

// OutputQueue is output queueing (§2.2, fig. 2): each output owns a queue
// that can accept, in the worst case, cells from all n inputs in one slot,
// and transmits one cell per slot. Link utilization is optimal; buffer
// memory is partitioned per output, so for a given loss target it needs
// more total cells than shared buffering (178 vs 86 in the [HlKa88]
// example quoted in §2.2).
type OutputQueue struct {
	n      int
	queues []*fifo.Ring[item]
	m      *Metrics
}

// NewOutputQueue builds an n×n output-queued switch with per-output
// capacity bufCap (≤ 0 unbounded).
func NewOutputQueue(n, bufCap int) *OutputQueue {
	s := &OutputQueue{n: n, queues: make([]*fifo.Ring[item], n), m: newMetrics()}
	for o := range s.queues {
		s.queues[o] = fifo.NewRing[item](bufCap)
	}
	return s
}

// N implements Arch.
func (s *OutputQueue) N() int { return s.n }

// Name implements Arch.
func (s *OutputQueue) Name() string { return "output-queue" }

// Metrics implements Arch.
func (s *OutputQueue) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *OutputQueue) Resident() int {
	r := 0
	for _, q := range s.queues {
		r += q.Len()
	}
	return r
}

// Step implements Arch.
func (s *OutputQueue) Step(arrivals []int) {
	for _, d := range arrivals {
		if d == NoArrival {
			continue
		}
		s.m.arrival(d, s.queues[d].Push(item{dst: d, t: s.m.Slot}))
	}
	for o := 0; o < s.n; o++ {
		if it, ok := s.queues[o].Pop(); ok {
			s.m.departure(it.t)
		}
	}
	s.m.Slot++
}

// SharedBuffer is shared (centralized) buffering (§2.2, fig. 2): a single
// buffer of capacity bufCap cells holds the union of all output queues.
// A cell is lost only when the whole buffer is full, so buffer memory
// utilization is the best of all the architectures — the reason the paper
// builds its pipelined memory to realize exactly this organization.
type SharedBuffer struct {
	n      int
	cap    int
	queues *fifo.MultiQueue
	items  []item // item storage indexed by buffer address
	free   *fifo.FreeList
	m      *Metrics
}

// NewSharedBuffer builds an n×n shared-buffer switch with total capacity
// bufCap cells (must be > 0: a shared buffer is physically finite).
func NewSharedBuffer(n, bufCap int) *SharedBuffer {
	return &SharedBuffer{
		n:      n,
		cap:    bufCap,
		queues: fifo.NewMultiQueue(n, bufCap),
		items:  make([]item, bufCap),
		free:   fifo.NewFreeList(bufCap),
		m:      newMetrics(),
	}
}

// N implements Arch.
func (s *SharedBuffer) N() int { return s.n }

// Name implements Arch.
func (s *SharedBuffer) Name() string { return "shared-buffer" }

// Metrics implements Arch.
func (s *SharedBuffer) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *SharedBuffer) Resident() int { return s.queues.Total() }

// Step implements Arch.
func (s *SharedBuffer) Step(arrivals []int) {
	for _, d := range arrivals {
		if d == NoArrival {
			continue
		}
		addr, ok := s.free.Get()
		if !ok {
			s.m.arrival(d, false)
			continue
		}
		s.items[addr] = item{dst: d, t: s.m.Slot}
		s.queues.Push(d, addr)
		s.m.arrival(d, true)
	}
	for o := 0; o < s.n; o++ {
		if addr, ok := s.queues.Pop(o); ok {
			s.m.departure(s.items[addr].t)
			s.free.Put(addr)
		}
	}
	s.m.Slot++
}

// Crosspoint is crosspoint queueing (§2.1, fig. 1): one queue per
// (input, output) pair. Every output can be kept busy independently of the
// others, so link utilization is optimal, but the memory is fragmented n²
// ways and total capacity requirements are the worst of the lot (§2.1).
type Crosspoint struct {
	n      int
	queues [][]*fifo.Ring[item] // queues[i][o]
	outRR  []arb.RoundRobin     // per-output service pointer over inputs
	m      *Metrics
	req    []bool
}

// NewCrosspoint builds an n×n crosspoint-queued switch with per-crosspoint
// capacity bufCap (≤ 0 unbounded).
func NewCrosspoint(n, bufCap int) *Crosspoint {
	s := &Crosspoint{
		n:      n,
		queues: make([][]*fifo.Ring[item], n),
		outRR:  make([]arb.RoundRobin, n),
		m:      newMetrics(),
		req:    make([]bool, n),
	}
	for i := range s.queues {
		s.queues[i] = make([]*fifo.Ring[item], n)
		for o := range s.queues[i] {
			s.queues[i][o] = fifo.NewRing[item](bufCap)
		}
	}
	return s
}

// N implements Arch.
func (s *Crosspoint) N() int { return s.n }

// Name implements Arch.
func (s *Crosspoint) Name() string { return "crosspoint" }

// Metrics implements Arch.
func (s *Crosspoint) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *Crosspoint) Resident() int {
	r := 0
	for i := range s.queues {
		for _, q := range s.queues[i] {
			r += q.Len()
		}
	}
	return r
}

// Step implements Arch.
func (s *Crosspoint) Step(arrivals []int) {
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		s.m.arrival(d, s.queues[i][d].Push(item{dst: d, t: s.m.Slot}))
	}
	for o := 0; o < s.n; o++ {
		for i := 0; i < s.n; i++ {
			s.req[i] = s.queues[i][o].Len() > 0
		}
		if w := s.outRR[o].Pick(s.req); w != arb.None {
			it, _ := s.queues[w][o].Pop()
			s.m.departure(it.t)
		}
	}
	s.m.Slot++
}

// BlockCrosspoint is block-crosspoint buffering (§2.2): the n×n switch is
// tiled into (n/g)² blocks of g inputs × g outputs, each block being a
// small shared buffer. It trades the single shared buffer's throughput
// requirement against crosspoint queueing's poor memory utilization —
// "lower throughput-per-buffer requirements than a single shared buffer,
// and better buffer space utilization than crosspoint queueing".
type BlockCrosspoint struct {
	n, g   int
	blocks [][]*SharedBuffer // blocks[ib][ob]: g×g shared buffer
	outRR  []arb.RoundRobin  // per-output pointer over its column blocks
	m      *Metrics
	// scratch: per-block arrival vectors
	blockArrivals [][][]int
	req           []bool
}

// NewBlockCrosspoint builds the tiled architecture: group size g must
// divide n; each block gets capacity blockCap cells.
func NewBlockCrosspoint(n, g, blockCap int) *BlockCrosspoint {
	if g <= 0 || n%g != 0 {
		panic("sim: block size must divide n")
	}
	nb := n / g
	s := &BlockCrosspoint{
		n: n, g: g,
		blocks:        make([][]*SharedBuffer, nb),
		outRR:         make([]arb.RoundRobin, n),
		m:             newMetrics(),
		blockArrivals: make([][][]int, nb),
		req:           make([]bool, nb),
	}
	for ib := range s.blocks {
		s.blocks[ib] = make([]*SharedBuffer, nb)
		s.blockArrivals[ib] = make([][]int, nb)
		for ob := range s.blocks[ib] {
			s.blocks[ib][ob] = NewSharedBuffer(g, blockCap)
			s.blockArrivals[ib][ob] = make([]int, g)
		}
	}
	return s
}

// N implements Arch.
func (s *BlockCrosspoint) N() int { return s.n }

// Name implements Arch.
func (s *BlockCrosspoint) Name() string { return "block-crosspoint" }

// Metrics implements Arch.
func (s *BlockCrosspoint) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *BlockCrosspoint) Resident() int {
	r := 0
	for ib := range s.blocks {
		for _, b := range s.blocks[ib] {
			r += b.Resident()
		}
	}
	return r
}

// Step implements Arch. Each block is itself a g×g shared buffer; an
// output serves its column's blocks round-robin, one cell per slot total.
func (s *BlockCrosspoint) Step(arrivals []int) {
	nb := s.n / s.g
	// Arrivals route to block (i/g, dst/g).
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		ib, ob := i/s.g, d/s.g
		b := s.blocks[ib][ob]
		addr, ok := b.free.Get()
		if !ok {
			s.m.arrival(d, false)
			continue
		}
		b.items[addr] = item{dst: d % s.g, t: s.m.Slot}
		b.queues.Push(d%s.g, addr)
		s.m.arrival(d, true)
	}
	// Departures: output o picks round-robin among the nb blocks of its
	// column that hold a cell for it.
	for o := 0; o < s.n; o++ {
		ob, lo := o/s.g, o%s.g
		for ib := 0; ib < nb; ib++ {
			s.req[ib] = s.blocks[ib][ob].queues.Len(lo) > 0
		}
		if ib := s.outRR[o].Pick(s.req[:nb]); ib != arb.None {
			b := s.blocks[ib][ob]
			addr, _ := b.queues.Pop(lo)
			s.m.departure(b.items[addr].t)
			b.free.Put(addr)
		}
	}
	s.m.Slot++
}

// SpeedupFabric is input queueing with an internal switching fabric of
// s× the link throughput plus (three-ported) output queues (§2.1, the
// [PaBr93] architecture, drawn with a "double internal switch" in fig. 1):
// per slot the fabric runs s HOL-arbitration phases, so it behaves like
// input queueing at load p/s feeding output queues.
type SpeedupFabric struct {
	n       int
	speedup int
	inQ     []*fifo.Ring[item]
	outQ    []*fifo.Ring[item]
	arbiter *arb.Random
	m       *Metrics
	req     []bool
	hol     []int
}

// NewSpeedupFabric builds the speedup architecture: per-input capacity
// inCap, per-output capacity outCap (≤ 0 unbounded), internal speedup ≥ 1.
func NewSpeedupFabric(n, inCap, outCap, speedup int) *SpeedupFabric {
	if speedup < 1 {
		panic("sim: speedup must be ≥ 1")
	}
	s := &SpeedupFabric{
		n:       n,
		speedup: speedup,
		inQ:     make([]*fifo.Ring[item], n),
		outQ:    make([]*fifo.Ring[item], n),
		arbiter: arb.NewRandom(0xfab),
		m:       newMetrics(),
		req:     make([]bool, n),
	}
	for i := 0; i < n; i++ {
		s.inQ[i] = fifo.NewRing[item](inCap)
		s.outQ[i] = fifo.NewRing[item](outCap)
	}
	return s
}

// N implements Arch.
func (s *SpeedupFabric) N() int { return s.n }

// Name implements Arch.
func (s *SpeedupFabric) Name() string { return "speedup-fabric" }

// Metrics implements Arch.
func (s *SpeedupFabric) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *SpeedupFabric) Resident() int {
	r := 0
	for i := 0; i < s.n; i++ {
		r += s.inQ[i].Len() + s.outQ[i].Len()
	}
	return r
}

// Step implements Arch.
func (s *SpeedupFabric) Step(arrivals []int) {
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		s.m.arrival(d, s.inQ[i].Push(item{dst: d, t: s.m.Slot}))
	}
	// s fabric phases: HOL arbitration into output queues. The HOL view
	// is snapshotted per phase so an input moves at most one cell per
	// phase (the fabric runs at s× the link rate, not s× per output
	// scan).
	if s.hol == nil {
		s.hol = make([]int, s.n)
	}
	for phase := 0; phase < s.speedup; phase++ {
		for i := 0; i < s.n; i++ {
			s.hol[i] = NoArrival
			if h, ok := s.inQ[i].Front(); ok {
				s.hol[i] = h.dst
			}
		}
		for o := 0; o < s.n; o++ {
			if s.outQ[o].Full() {
				continue // output queue cannot accept this phase
			}
			for i := 0; i < s.n; i++ {
				s.req[i] = s.hol[i] == o
			}
			if w := s.arbiter.Pick(s.req); w != arb.None {
				it, _ := s.inQ[w].Pop()
				s.outQ[o].Push(it)
			}
		}
	}
	for o := 0; o < s.n; o++ {
		if it, ok := s.outQ[o].Pop(); ok {
			s.m.departure(it.t)
		}
	}
	s.m.Slot++
}
