// Package prizma models the interleaved shared-buffer organization of
// [Turn93] and the PRIZMA architecture [DeEI95], the §5.3 comparison
// baseline: the shared buffer consists of M independent single-ported
// banks, each bank storing one cell in the canonical design. A "router"
// crossbar (n×M, w bits wide) steers each arriving cell into a free bank
// word by word; a "selector" crossbar (M×n) streams departing cells to
// the outputs.
//
// The organization scales buffer throughput with M (every bank can be
// active at once), which is its selling point — but §5.3 argues the cost
// is prohibitive: the two crossbars grow ∝ n×M instead of the pipelined
// memory's n×2n, each small bank pays its own address decoder, and the
// single-ported banks preclude cut-through (a bank cannot be read while
// it is being written).
//
// §5.3 also remarks that "the PRIZMA crossbar cost could be reduced by
// placing more than one packets per bank, but that would complicate
// control and scheduling and may hurt performance"; Config.CellsPerBank
// implements that variant: a deeper bank serializes all its residents
// behind one port, so reads contend with each other and with writes.
package prizma

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/fifo"
	"pipemem/internal/stats"
)

// Config parameterizes the interleaved switch.
type Config struct {
	// Ports is n.
	Ports int
	// Banks is M, the number of banks. 0 means 4·Ports.
	Banks int
	// CellsPerBank is the bank depth (1 in the canonical PRIZMA). §5.3
	// notes the crossbar cost "could be reduced by placing more than one
	// packets per bank, but that would complicate control and scheduling
	// and may hurt performance": a deeper bank serializes its resident
	// cells behind one port. 0 means 1.
	CellsPerBank int
	// CellWords is the cell size in words; unlike the pipelined or wide
	// organizations it is decoupled from n (that is the architecture's
	// scalability argument, §5.3). 0 means 2·Ports for comparability.
	CellWords int
	// WordBits is w.
	WordBits int
}

// Canonical fills defaults.
func (c Config) Canonical() Config {
	if c.Banks == 0 {
		c.Banks = 4 * c.Ports
	}
	if c.CellsPerBank == 0 {
		c.CellsPerBank = 1
	}
	if c.CellWords == 0 {
		c.CellWords = 2 * c.Ports
	}
	if c.WordBits == 0 {
		c.WordBits = 16
	}
	return c
}

// Validate reports whether the configuration is buildable (ErrBadConfig).
func (c Config) Validate() error {
	c = c.Canonical()
	if c.Ports < 1 {
		return fmt.Errorf("%w: prizma: ports = %d", core.ErrBadConfig, c.Ports)
	}
	if c.Banks < 2 {
		return fmt.Errorf("%w: prizma: %d banks", core.ErrBadConfig, c.Banks)
	}
	if c.CellsPerBank < 1 {
		return fmt.Errorf("%w: prizma: %d cells per bank", core.ErrBadConfig, c.CellsPerBank)
	}
	if c.CellWords < 1 {
		return fmt.Errorf("%w: prizma: %d-word cells", core.ErrBadConfig, c.CellWords)
	}
	if c.WordBits < 1 || c.WordBits > 64 {
		return fmt.Errorf("%w: prizma: word width %d", core.ErrBadConfig, c.WordBits)
	}
	return nil
}

// portState is what a bank's single port is doing.
type portState uint8

const (
	portIdle portState = iota
	portWriting
	portReading
)

// stored is one resident (or arriving) cell.
type stored struct {
	c     *cell.Cell
	bank  int
	head  int64
	ready bool // fully written
	// streaming bookkeeping (write or read, one at a time)
	pos   int
	start int64
}

// bank is one single-ported memory bank holding up to CellsPerBank cells.
type bank struct {
	state portState
	// resident counts cells stored or being written into the bank.
	resident int
	// cur is the cell currently streaming through the port.
	cur *stored
}

// Switch is the interleaved (PRIZMA-style) switch, a core.Organization.
type Switch struct {
	cfg  Config
	n, k int

	cycle int64

	banks  []bank
	queues []*fifo.Ring[*stored] // per output, FIFO of resident cells

	writing []*stored // per input: cell being streamed in, or nil
	reading []*stored // per output: cell being streamed out, or nil

	done    []core.Departure
	counter stats.Counter
	cutLat  *stats.Hist
}

// New builds the switch.
func New(cfg Config) (*Switch, error) {
	cfg = cfg.Canonical()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Ports
	s := &Switch{
		cfg: cfg, n: n, k: cfg.CellWords,
		banks:   make([]bank, cfg.Banks),
		queues:  make([]*fifo.Ring[*stored], n),
		writing: make([]*stored, n),
		reading: make([]*stored, n),
		cutLat:  stats.NewHist(4096),
	}
	for o := range s.queues {
		s.queues[o] = fifo.NewRing[*stored](0)
	}
	return s, nil
}

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// Counters exposes "offered", "accepted", "delivered", "drop-nobank".
func (s *Switch) Counters() *stats.Counter { return &s.counter }

// CutLatency returns the head-in→head-out histogram. (There is no
// cut-through: the minimum is a full cell time plus pipeline delays.)
func (s *Switch) CutLatency() *stats.Hist { return s.cutLat }

// Buffered returns the number of cells fully resident and queued.
func (s *Switch) Buffered() int {
	t := 0
	for _, q := range s.queues {
		t += q.Len()
	}
	return t
}

// Cycle returns the number of Ticks so far.
func (s *Switch) Cycle() int64 { return s.cycle }

// Resident counts cells streaming into a bank, queued, or streaming out.
func (s *Switch) Resident() int {
	r := s.Buffered()
	for i := 0; i < s.n; i++ {
		if s.writing[i] != nil {
			r++
		}
		if s.reading[i] != nil {
			r++
		}
	}
	return r
}

// DroppedCells returns the arrivals that found no bank, the only loss mode.
func (s *Switch) DroppedCells() int64 { return s.counter.Get("drop-nobank") }

// Geometry implements core.Organization.
func (s *Switch) Geometry() core.Geometry {
	return core.Geometry{Ports: s.n, CellWords: s.k, WordBits: s.cfg.WordBits, Cells: s.cfg.Banks * s.cfg.CellsPerBank}
}

// Report implements core.Organization: the driver sees all PRIZMA measures.
func (s *Switch) Report(*core.RunResult) {}

// Drain returns departures since the last call.
func (s *Switch) Drain() []core.Departure {
	d := s.done
	s.done = nil
	return d
}

// RouterCrossbarPoints returns the crosspoint count of the input router,
// ∝ n×M — the §5.3 cost term (the selector is symmetric).
func (s *Switch) RouterCrossbarPoints() int { return s.n * s.cfg.Banks }

// pickBank selects an idle bank with spare depth for an arriving cell,
// preferring emptier banks (spreads load and, with depth > 1, reduces
// later port contention).
func (s *Switch) pickBank() int {
	best, bestResident := -1, 0
	for b := range s.banks {
		bk := &s.banks[b]
		if bk.state != portIdle || bk.resident >= s.cfg.CellsPerBank {
			continue
		}
		if best == -1 || bk.resident < bestResident {
			best, bestResident = b, bk.resident
		}
	}
	return best
}

// Tick advances one cycle; heads as in core.Switch.Tick.
func (s *Switch) Tick(heads []*cell.Cell) {
	c := s.cycle

	// Egress: advance reading cells, one word per output per cycle.
	for o := 0; o < s.n; o++ {
		st := s.reading[o]
		if st == nil {
			continue
		}
		if st.pos == 0 {
			st.start = c
		}
		st.pos++
		if st.pos == s.k {
			bk := &s.banks[st.bank]
			bk.state = portIdle
			bk.resident--
			bk.cur = nil
			s.counter.Inc("delivered", 1)
			s.cutLat.Add(st.start - st.head)
			s.done = append(s.done, core.Departure{
				Cell: st.c.Clone(), Expected: st.c, Output: o,
				HeadIn: st.head, HeadOut: st.start, TailOut: c,
			})
			s.reading[o] = nil
		}
	}

	// Start new reads: each idle output claims its queue front if that
	// cell's bank port is free (with deep banks, another resident of the
	// same bank may hold the port — the §5.3 scheduling complication).
	for o := 0; o < s.n; o++ {
		if s.reading[o] != nil {
			continue
		}
		st, ok := s.queues[o].Front()
		if !ok {
			continue
		}
		bk := &s.banks[st.bank]
		if bk.state != portIdle || !st.ready {
			continue
		}
		s.queues[o].Pop()
		bk.state = portReading
		bk.cur = st
		st.pos = 0
		s.reading[o] = st
	}

	// Writes: advance arriving cells.
	for i := 0; i < s.n; i++ {
		st := s.writing[i]
		if st == nil {
			continue
		}
		st.pos++
		if st.pos == s.k {
			st.ready = true
			st.pos = 0
			bk := &s.banks[st.bank]
			bk.state = portIdle
			bk.cur = nil
			s.queues[st.c.Dst].Push(st)
			s.writing[i] = nil
		}
	}

	// Ingress: allocate a bank per arriving head.
	for i := 0; heads != nil && i < s.n; i++ {
		if heads[i] == nil {
			continue
		}
		nc := heads[i]
		if len(nc.Words) != s.k {
			panic(fmt.Sprintf("prizma: cell of %d words, want %d", len(nc.Words), s.k))
		}
		if s.writing[i] != nil {
			panic(fmt.Sprintf("prizma: head injected mid-cell on input %d", i))
		}
		s.counter.Inc("offered", 1)
		b := s.pickBank()
		if b < 0 {
			s.counter.Inc("drop-nobank", 1)
			continue
		}
		s.counter.Inc("accepted", 1)
		nc.Enqueue = c
		st := &stored{c: nc, bank: b, head: c, pos: 1}
		bk := &s.banks[b]
		bk.state = portWriting
		bk.resident++
		bk.cur = st
		s.writing[i] = st
	}

	s.cycle++
}
