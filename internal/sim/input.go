package sim

import (
	"fmt"

	"pipemem/internal/arb"
	"pipemem/internal/fifo"
)

// InputFIFO is classic FIFO input queueing (§2.1): one FIFO queue per
// input, only the head-of-line cell of each queue is eligible, contention
// for an output resolved by random selection among HOL contenders — the
// model of [KaHM87], saturating at 2-√2 for large n because of head-of-line
// blocking.
type InputFIFO struct {
	n       int
	queues  []*fifo.Ring[item]
	arbiter *arb.Random
	m       *Metrics
	// scratch
	req []bool
	hol []int
}

// NewInputFIFO builds an n×n FIFO input-queued switch with per-input
// buffer capacity bufCap (≤ 0 for unbounded) and a seeded random HOL
// arbiter, matching [KaHM87].
func NewInputFIFO(n, bufCap int) *InputFIFO {
	s := &InputFIFO{
		n:       n,
		queues:  make([]*fifo.Ring[item], n),
		arbiter: arb.NewRandom(0x1234),
		m:       newMetrics(),
		req:     make([]bool, n),
	}
	for i := range s.queues {
		s.queues[i] = fifo.NewRing[item](bufCap)
	}
	return s
}

// N implements Arch.
func (s *InputFIFO) N() int { return s.n }

// Name implements Arch.
func (s *InputFIFO) Name() string { return "input-fifo" }

// Metrics implements Arch.
func (s *InputFIFO) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *InputFIFO) Resident() int {
	r := 0
	for _, q := range s.queues {
		r += q.Len()
	}
	return r
}

// Step implements Arch.
func (s *InputFIFO) Step(arrivals []int) {
	// Arrivals first: a cell arriving into an empty queue may depart in
	// the same slot (cut-through at slot granularity), matching the
	// conventions of the analyses in §2.
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		s.m.arrival(d, s.queues[i].Push(item{dst: d, t: s.m.Slot}))
	}
	// HOL contention. The head-of-line view is snapshotted before any
	// departure: an input transmits at most one cell per slot, so a cell
	// uncovered by a pop must not compete until the next slot.
	if s.hol == nil {
		s.hol = make([]int, s.n)
	}
	for i := 0; i < s.n; i++ {
		s.hol[i] = NoArrival
		if h, ok := s.queues[i].Front(); ok {
			s.hol[i] = h.dst
		}
	}
	for o := 0; o < s.n; o++ {
		for i := 0; i < s.n; i++ {
			s.req[i] = s.hol[i] == o
		}
		if w := s.arbiter.Pick(s.req); w != arb.None {
			it, _ := s.queues[w].Pop()
			s.m.departure(it.t)
		}
	}
	s.m.Slot++
}

// VOQ is non-FIFO input buffering (§2.1): each input holds one buffer
// shared by n virtual output queues (so no head-of-line blocking), a
// matching scheduler decides which input sends to which output in each
// slot, and "only one output port is allowed to use each buffer at any
// given time". This is the architecture [AOST93], [TaCh93], and [LaSe95]
// schedule, and the comparison column of E4.
type VOQ struct {
	n       int
	voq     [][]*fifo.Ring[item] // voq[i][o]
	perIn   []int                // cells buffered at input i
	bufCap  int                  // per-input capacity (≤0 unbounded)
	matcher arb.Matcher
	m       *Metrics
	// scratch
	req   [][]bool
	match []int
}

// NewVOQ builds an n×n non-FIFO input-buffered switch: per-input buffer
// capacity bufCap shared across that input's virtual output queues, and
// the given matching scheduler (nil for iSLIP with 4 iterations).
func NewVOQ(n, bufCap int, matcher arb.Matcher) *VOQ {
	if matcher == nil {
		matcher = arb.NewISLIP(n, 0)
	}
	s := &VOQ{
		n:       n,
		voq:     make([][]*fifo.Ring[item], n),
		perIn:   make([]int, n),
		bufCap:  bufCap,
		matcher: matcher,
		m:       newMetrics(),
		req:     make([][]bool, n),
		match:   make([]int, n),
	}
	for i := range s.voq {
		s.voq[i] = make([]*fifo.Ring[item], n)
		s.req[i] = make([]bool, n)
		for o := range s.voq[i] {
			s.voq[i][o] = fifo.NewRing[item](0)
		}
	}
	return s
}

// N implements Arch.
func (s *VOQ) N() int { return s.n }

// Name implements Arch.
func (s *VOQ) Name() string { return "voq-input" }

// Metrics implements Arch.
func (s *VOQ) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *VOQ) Resident() int {
	r := 0
	for _, c := range s.perIn {
		r += c
	}
	return r
}

// Step implements Arch.
func (s *VOQ) Step(arrivals []int) {
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		if s.bufCap > 0 && s.perIn[i] >= s.bufCap {
			s.m.arrival(d, false)
			continue
		}
		s.voq[i][d].Push(item{dst: d, t: s.m.Slot})
		s.perIn[i]++
		s.m.arrival(d, true)
	}
	for i := 0; i < s.n; i++ {
		for o := 0; o < s.n; o++ {
			s.req[i][o] = s.voq[i][o].Len() > 0
		}
	}
	s.matcher.Match(s.req, s.match)
	for i, o := range s.match {
		if o == arb.None {
			continue
		}
		it, ok := s.voq[i][o].Pop()
		if !ok {
			panic(fmt.Sprintf("sim: matcher granted empty VOQ (%d,%d)", i, o))
		}
		s.perIn[i]--
		s.m.departure(it.t)
	}
	s.m.Slot++
}

// InputSmoothing is the frame-based scheme of [HlKa88] quoted in §2.2's
// buffer-sizing comparison: each input accumulates a frame of b cells
// (b slots); at the frame boundary all n·b cells are offered to the
// fabric at once, each output accepts at most b of them (transmitting
// them during the next frame), and the excess is lost. It is open-loop —
// no queueing carries over between frames — which is why it needs ~80
// cells per input where shared buffering needs 5.4 per output.
type InputSmoothing struct {
	n     int
	frame int // b, slots per frame and per-input buffer capacity
	phase int
	// pending[i] holds the cells input i accumulated this frame.
	pending [][]item
	// outbox[o] holds cells accepted for output o, departing one per
	// slot during the following frame.
	outbox []*fifo.Ring[item]
	m      *Metrics
}

// NewInputSmoothing builds the [HlKa88] input-smoothing model with frame
// (and per-input buffer) size b.
func NewInputSmoothing(n, b int) *InputSmoothing {
	s := &InputSmoothing{
		n:       n,
		frame:   b,
		pending: make([][]item, n),
		outbox:  make([]*fifo.Ring[item], n),
		m:       newMetrics(),
	}
	for o := range s.outbox {
		s.outbox[o] = fifo.NewRing[item](b)
	}
	return s
}

// N implements Arch.
func (s *InputSmoothing) N() int { return s.n }

// Name implements Arch.
func (s *InputSmoothing) Name() string { return "input-smoothing" }

// Metrics implements Arch.
func (s *InputSmoothing) Metrics() *Metrics { return s.m }

// Resident implements Arch.
func (s *InputSmoothing) Resident() int {
	r := 0
	for _, p := range s.pending {
		r += len(p)
	}
	for _, q := range s.outbox {
		r += q.Len()
	}
	return r
}

// Step implements Arch.
func (s *InputSmoothing) Step(arrivals []int) {
	for i, d := range arrivals {
		if d == NoArrival {
			continue
		}
		// The per-input buffer is exactly one frame deep; at one arrival
		// per slot it cannot overflow, so arrivals are always accepted.
		s.pending[i] = append(s.pending[i], item{dst: d, t: s.m.Slot})
		s.m.arrival(d, true)
	}
	// Departures: each output transmits one cell from the previous
	// frame's acceptance.
	for o := 0; o < s.n; o++ {
		if it, ok := s.outbox[o].Pop(); ok {
			s.m.departure(it.t)
		}
	}
	s.phase++
	if s.phase == s.frame {
		s.phase = 0
		// Frame boundary: offer everything; each output accepts up to b.
		for i := range s.pending {
			for _, it := range s.pending[i] {
				if !s.outbox[it.dst].Push(it) {
					// Output already holds b cells for next frame: loss.
					s.m.lateDrop(it.dst)
				}
			}
			s.pending[i] = s.pending[i][:0]
		}
	}
	s.m.Slot++
}
