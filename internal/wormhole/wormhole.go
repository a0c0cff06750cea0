// Package wormhole is a flit-level simulator of a multistage network of
// input-buffered wormhole switches, reproducing the regime §2.1 of the
// paper quotes from [Dally90, fig. 8, 1 lane]: "when the traffic is bursty
// and the bursts are larger than the buffers — for example with multi-flit
// packets in wormhole routing — saturation occurs sooner: … with 20-flit
// messages and 16-flit buffers, simulation showed saturation at about 25%
// of link capacity".
//
// The fabric is a 2-ary butterfly: N = 2^s terminals, s stages of 2×2
// switches with one FIFO flit buffer per switch input (FIFO input
// queueing, the fig. 1 architecture). A message's head flit reserves each
// channel it crosses and the tail releases it; when a message longer than
// a buffer blocks, it keeps channels held across multiple switches and
// head-of-line blocking compounds into tree saturation — the mechanism
// behind the early collapse.
//
// The original figure is a torus; the butterfly keeps the two properties
// that matter for the quoted point (input-FIFO buffering and messages
// longer than buffers) while staying single-chip-fabric shaped, per the
// substitution note in DESIGN.md.
package wormhole

import (
	"fmt"
	"math/bits"
	"math/rand/v2"

	"pipemem/internal/cell"
	"pipemem/internal/fifo"
	"pipemem/internal/stats"
)

// Config parameterizes the network.
type Config struct {
	// Terminals is N, a power of two ≥ 4; the network has log2(N) stages.
	Terminals int
	// BufferFlits is the per-switch-input FIFO capacity (the 16 of the
	// quoted experiment).
	BufferFlits int
	// MsgFlits is the message length L (the 20 of the quoted experiment).
	MsgFlits int
	// Load is the offered load in flits per cycle per terminal, in
	// (0, 1]. Ignored when Saturate is set.
	Load float64
	// Saturate keeps every source backlogged, for saturation-throughput
	// measurements.
	Saturate bool
	// Seed seeds the PRNG.
	Seed uint64
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.Terminals < 4 || c.Terminals&(c.Terminals-1) != 0 {
		return fmt.Errorf("wormhole: terminals = %d, need a power of two ≥ 4", c.Terminals)
	}
	if c.BufferFlits < 1 {
		return fmt.Errorf("wormhole: buffer of %d flits", c.BufferFlits)
	}
	if c.MsgFlits < 1 {
		return fmt.Errorf("wormhole: messages of %d flits", c.MsgFlits)
	}
	if !c.Saturate && (c.Load <= 0 || c.Load > 1) {
		return fmt.Errorf("wormhole: load %v out of (0,1]", c.Load)
	}
	return nil
}

// Net is the simulated network.
type Net struct {
	stages int

	// buf[t][l] is the input FIFO of line l at stage t.
	buf [][]*fifo.Ring[cell.Flit]
	// hold[t][m] is the message currently holding output line m of stage
	// t, or 0 when free.
	hold [][]uint64
	// rr[t][m] is the round-robin pointer (0/1) for output line m.
	rr [][]uint8

	// sent[l] marks that input line l of the stage being processed has
	// already forwarded a flit this cycle (one flit per input per cycle).
	sent []bool

	source
}

// New builds the network.
func New(cfg Config) (*Net, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals
	s := bits.TrailingZeros(uint(n))
	net := &Net{
		stages: s,
		buf:    make([][]*fifo.Ring[cell.Flit], s),
		hold:   make([][]uint64, s),
		rr:     make([][]uint8, s),
		sent:   make([]bool, n),
		source: newSource(n, cfg.MsgFlits, cfg.Load, cfg.Saturate, cfg.Seed, 0x6c62272e07bb0142),
	}
	for t := 0; t < s; t++ {
		net.buf[t] = make([]*fifo.Ring[cell.Flit], n)
		net.hold[t] = make([]uint64, n)
		net.rr[t] = make([]uint8, n)
		for l := 0; l < n; l++ {
			net.buf[t][l] = fifo.NewRing[cell.Flit](cfg.BufferFlits)
		}
	}
	return net, nil
}

// Cycle returns the current cycle.
func (w *Net) Cycle() int64 { return w.cycle }

// Injected returns the total flits accepted into stage-0 buffers so far.
func (w *Net) Injected() int64 { return w.injected }

// bit returns the destination bit examined at stage t.
func (w *Net) bit(t int) int { return w.stages - 1 - t }

// Step advances one cycle. Stages are processed from the ejection side
// back to injection so a flit can advance one hop per cycle through
// freshly freed space (standard wormhole pipelining).
func (w *Net) Step() error {
	// Ejection + inter-stage movement, downstream first.
	for t := w.stages - 1; t >= 0; t-- {
		b := w.bit(t)
		for l := range w.sent {
			w.sent[l] = false
		}
		for m := 0; m < w.n; m++ {
			if err := w.moveOnOutput(t, m, b); err != nil {
				return err
			}
		}
	}
	// Injection.
	for l := 0; l < w.n; l++ {
		w.refill(l)
		if f, ok := w.src[l].Front(); ok && !w.buf[0][l].Full() {
			w.src[l].Pop()
			w.buf[0][l].Push(f)
			w.injected++
		}
	}
	w.cycle++
	return nil
}

// moveOnOutput advances at most one flit across output line m of stage t.
func (w *Net) moveOnOutput(t, m, b int) error {
	// The two candidate input lines of the switch owning output m are m
	// and m with bit b flipped.
	l0, l1 := m, m^(1<<b)
	holder := w.hold[t][m]

	pickFrom := -1
	if holder != 0 {
		// The channel is reserved: only the holding message's flits may
		// cross. Find which input buffer fronts it.
		for _, l := range []int{l0, l1} {
			if w.sent[l] {
				continue
			}
			if f, ok := w.buf[t][l].Front(); ok && f.Msg == holder {
				pickFrom = l
				break
			}
		}
		if pickFrom == -1 {
			return nil // holder's next flit not at any front yet
		}
	} else {
		// Free channel: arbitrate among head flits routing to m.
		var cand [2]int
		nc := 0
		for _, l := range []int{l0, l1} {
			if w.sent[l] {
				continue
			}
			f, ok := w.buf[t][l].Front()
			if !ok || !f.Kind.IsHead() {
				continue
			}
			if w.route(f.Dst, b) == ((m>>b)&1 == 1) {
				cand[nc] = l
				nc++
			}
		}
		if nc == 0 {
			return nil
		}
		if nc == 1 {
			pickFrom = cand[0]
		} else {
			// Round-robin between the two inputs.
			pickFrom = cand[w.rr[t][m]&1]
			w.rr[t][m] ^= 1
		}
	}

	// Downstream space check.
	if t+1 < w.stages {
		if w.buf[t+1][m].Full() {
			return nil
		}
	}
	f, _ := w.buf[t][pickFrom].Pop()
	w.sent[pickFrom] = true
	if f.Kind.IsHead() {
		w.hold[t][m] = f.Msg
	}
	if f.Kind.IsTail() {
		w.hold[t][m] = 0
	}
	if t+1 < w.stages {
		w.buf[t+1][m].Push(f)
		return nil
	}
	return w.eject(m, f)
}

// route reports whether dst requires the bit-b output value 1.
func (w *Net) route(dst, b int) bool { return (dst>>b)&1 == 1 }

// source is what both nets share at their edges: the terminals' message
// queues and the arrival process that fills them, the ejection checker and
// the flit counters. Each net seeds it with its own PCG stream constant.
type source struct {
	n, msgFlits int
	load        float64
	saturate    bool

	cycle int64

	// src[l] is the (unbounded) source queue of terminal l; in Saturate
	// mode it is refilled on demand.
	src    []*fifo.Ring[cell.Flit]
	rng    *rand.Rand
	nextID uint64

	injected, delivered int64 // flits
	msgLatency          *stats.Hist
	expect              map[uint64]expectState
}

// expectState tracks in-order delivery per message for integrity checking.
type expectState struct {
	dst  int
	next int
}

func newSource(n, msgFlits int, load float64, saturate bool, seed, stream uint64) source {
	s := source{
		n: n, msgFlits: msgFlits, load: load, saturate: saturate,
		src:        make([]*fifo.Ring[cell.Flit], n),
		rng:        rand.New(rand.NewPCG(seed, stream)),
		msgLatency: stats.NewHist(1 << 14),
		expect:     make(map[uint64]expectState),
	}
	for l := range s.src {
		s.src[l] = fifo.NewRing[cell.Flit](0)
	}
	return s
}

// messages is the source a net carries; Run reads its counters.
func (s *source) messages() *source { return s }

// Delivered returns the total flits ejected so far.
func (s *source) Delivered() int64 { return s.delivered }

// MsgLatency returns the message latency histogram (inject→tail ejection).
func (s *source) MsgLatency() *stats.Hist { return s.msgLatency }

// eject delivers a flit to terminal m, checking destination and order.
func (s *source) eject(m int, f cell.Flit) error {
	if f.Dst != m {
		return fmt.Errorf("wormhole: flit of message %d for terminal %d ejected at %d", f.Msg, f.Dst, m)
	}
	st, ok := s.expect[f.Msg]
	if f.Kind.IsHead() {
		if ok {
			return fmt.Errorf("wormhole: duplicate head for message %d", f.Msg)
		}
		st = expectState{dst: f.Dst}
	} else if !ok {
		return fmt.Errorf("wormhole: body flit of unknown message %d", f.Msg)
	}
	if f.Index != st.next {
		return fmt.Errorf("wormhole: message %d flit %d ejected out of order (want %d)", f.Msg, f.Index, st.next)
	}
	st.next++
	s.delivered++
	if f.Kind.IsTail() {
		delete(s.expect, f.Msg)
		s.msgLatency.Add(s.cycle - f.Inject)
	} else {
		s.expect[f.Msg] = st
	}
	return nil
}

// refill tops up terminal l's source queue according to the traffic mode.
func (s *source) refill(l int) {
	switch {
	case s.saturate:
		if s.src[l].Len() == 0 {
			s.newMessage(l)
		}
	default:
		// Open loop: message starts are Bernoulli at rate Load/MsgFlits
		// per cycle, so offered flit load is Load.
		if s.rng.Float64() < s.load/float64(s.msgFlits) {
			s.newMessage(l)
		}
	}
}

func (s *source) newMessage(l int) {
	s.nextID++
	dst := s.rng.IntN(s.n)
	for _, f := range cell.Message(s.nextID, dst, s.msgFlits, s.cycle) {
		s.src[l].Push(f)
	}
}

// Result summarizes a run.
type Result struct {
	Cycles int64
	// Throughput is delivered flits per cycle per terminal — the
	// fraction of link capacity actually carried.
	Throughput float64
	// MeanMsgLatency is inject→tail in cycles.
	MeanMsgLatency float64
	DeliveredFlits int64
}

// stepper is a net Run drives: *Net or *LaneNet.
type stepper interface {
	Step() error
	messages() *source
}

// Run advances the network for warmup+measure cycles and reports the
// throughput over the measurement window.
func Run(w stepper, warmup, measure int64) (Result, error) {
	for i := int64(0); i < warmup; i++ {
		if err := w.Step(); err != nil {
			return Result{}, err
		}
	}
	s := w.messages()
	startDelivered := s.delivered
	for i := int64(0); i < measure; i++ {
		if err := w.Step(); err != nil {
			return Result{}, err
		}
	}
	d := s.delivered - startDelivered
	return Result{
		Cycles:         measure,
		Throughput:     float64(d) / float64(measure) / float64(s.n),
		MeanMsgLatency: s.msgLatency.Mean(),
		DeliveredFlits: d,
	}, nil
}
