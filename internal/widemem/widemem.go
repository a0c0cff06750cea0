// Package widemem models the wide-memory shared buffer organization of
// fig. 3 of the paper — the baseline the pipelined memory improves upon
// (§3.1–§3.2, [KaSC91]).
//
// One RAM of width K·w bits holds whole cells; one full-width access (read
// or write of an entire cell) happens per cycle. Because a cell can only be
// written after it has fully arrived, and because the wide memory cannot be
// guaranteed to be free at exactly that moment, each input needs *double
// buffering*: a first row of K latches assembles the arriving cell, then
// hands it to a second row that waits for its turn on the wide bus. And
// because a cell cannot be stored before all of it has arrived while
// cut-through must start earlier, cut-through needs an extra datapath: the
// tristate drivers, bus wires and output crossbar of fig. 3 — hardware the
// pipelined memory eliminates entirely (§3.3).
//
// The model is cycle-accurate at the same granularity as internal/core, so
// the two organizations can be compared head-to-head: identical function,
// one extra register row per input, an explicit cut-through crossbar, and
// identical worst-case timing obligations.
package widemem

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/fifo"
	"pipemem/internal/stats"
)

// Config parameterizes the wide-memory switch.
type Config struct {
	// Ports is n (inputs = outputs).
	Ports int
	// CellWords is K, the cell size in words (also the wide-memory width
	// in words). 0 means 2·Ports, matching the pipelined quantum.
	CellWords int
	// WordBits is w (1…64).
	WordBits int
	// Cells is the buffer capacity in cells.
	Cells int
	// CutThroughCrossbar enables the extra bypass datapath of fig. 3.
	// Without it the switch is store-and-forward.
	CutThroughCrossbar bool
}

// Canonical fills defaults.
func (c Config) Canonical() Config {
	if c.CellWords == 0 {
		c.CellWords = 2 * c.Ports
	}
	if c.WordBits == 0 {
		c.WordBits = 16
	}
	if c.Cells == 0 {
		c.Cells = 256
	}
	return c
}

// Validate reports whether the configuration is buildable (ErrBadConfig).
func (c Config) Validate() error {
	c = c.Canonical()
	if c.Ports < 1 {
		return fmt.Errorf("%w: widemem: ports = %d", core.ErrBadConfig, c.Ports)
	}
	if c.CellWords < 2 {
		return fmt.Errorf("%w: widemem: cell of %d words", core.ErrBadConfig, c.CellWords)
	}
	if c.WordBits < 1 || c.WordBits > 64 {
		return fmt.Errorf("%w: widemem: word width %d", core.ErrBadConfig, c.WordBits)
	}
	if c.Cells < 1 {
		return fmt.Errorf("%w: widemem: capacity %d", core.ErrBadConfig, c.Cells)
	}
	if c.CellWords < 2*c.Ports {
		return fmt.Errorf("%w: widemem: %d-word cells < 2×%d ports: one access per cell time per port cannot keep up", core.ErrBadConfig, c.CellWords, c.Ports)
	}
	return nil
}

// assembling is a cell arriving into the first latch row.
type assembling struct {
	c     *cell.Cell
	head  int64
	count int // words latched so far
}

// staged is a complete cell in the second latch row awaiting the wide bus.
type staged struct {
	c    *cell.Cell
	head int64
	// ready is the cycle the cell entered the second row (its write may
	// happen from this cycle on).
	ready int64
}

// stored is a cell resident in the wide memory.
type stored struct {
	c     *cell.Cell
	head  int64
	wrote int64
}

// transmitting is a cell streaming out of an output latch row (or through
// the cut-through crossbar).
type transmitting struct {
	c     *cell.Cell
	head  int64
	pos   int
	start int64 // cycle the first word goes on the link
	// direct marks a cut-through-crossbar transmission, which taps the
	// first input latch row word by word instead of the output row.
	direct bool
}

// Switch is the wide-memory shared-buffer switch, a core.Organization.
type Switch struct {
	cfg  Config
	n, k int

	cycle int64

	row1 []*assembling // per input: first latch row
	row2 []*staged     // per input: second latch row (double buffering)

	mem    []stored // wide memory by address (whole cells)
	free   *fifo.FreeList
	queues *fifo.MultiQueue

	outRow   []*transmitting // per output
	linkFree []int64

	readRR  int
	writeRR int

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
	return &Switch{
		cfg: cfg, n: n, k: cfg.CellWords,
		row1:     make([]*assembling, n),
		row2:     make([]*staged, n),
		mem:      make([]stored, cfg.Cells),
		free:     fifo.NewFreeList(cfg.Cells),
		queues:   fifo.NewMultiQueue(n, cfg.Cells),
		outRow:   make([]*transmitting, n),
		linkFree: make([]int64, n),
		cutLat:   stats.NewHist(4096),
	}, nil
}

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// Counters exposes "offered", "accepted", "delivered", "drop-overrun"
// (second latch row still occupied when a cell finished assembling, or no
// buffer address by the write deadline), "cutthrough" (departures that
// used the bypass crossbar).
func (s *Switch) Counters() *stats.Counter { return &s.counter }

// CutLatency returns the head-in→head-out histogram.
func (s *Switch) CutLatency() *stats.Hist { return s.cutLat }

// Cycle returns the number of Ticks so far.
func (s *Switch) Cycle() int64 { return s.cycle }

// Buffered returns cells in the wide memory queues.
func (s *Switch) Buffered() int { return s.queues.Total() }

// Resident counts cells assembling, staged, stored, or streaming out.
func (s *Switch) Resident() int {
	r := s.Buffered()
	for i := 0; i < s.n; i++ {
		if s.row1[i] != nil && s.row1[i].c != nil {
			r++
		}
		if s.row2[i] != nil {
			r++
		}
		if s.outRow[i] != nil {
			r++
		}
	}
	return r
}

// DroppedCells returns the double-buffering overruns, the only loss mode.
func (s *Switch) DroppedCells() int64 { return s.counter.Get("drop-overrun") }

// Geometry implements core.Organization.
func (s *Switch) Geometry() core.Geometry {
	return core.Geometry{Ports: s.n, CellWords: s.k, WordBits: s.cfg.WordBits, Cells: s.cfg.Cells}
}

// Report implements core.Organization.
func (s *Switch) Report(res *core.RunResult) { res.DropOverrun = res.Dropped }

// Drain returns departures since the last call.
func (s *Switch) Drain() []core.Departure {
	d := s.done
	s.done = nil
	return d
}

// InputLatchRows returns the number of K-word latch rows on the input
// side: 2 per input (the double buffering of fig. 3), versus 1 for the
// pipelined memory of fig. 4.
func (s *Switch) InputLatchRows() int { return 2 * s.n }

// NeedsCutThroughCrossbar reports whether the configuration carries the
// extra bypass datapath (always true when cut-through is on: the wide
// memory cannot provide it natively).
func (s *Switch) NeedsCutThroughCrossbar() bool { return s.cfg.CutThroughCrossbar }

// Tick advances one cycle; heads as in core.Switch.Tick.
func (s *Switch) Tick(heads []*cell.Cell) {
	c := s.cycle

	// Egress: stream words from output rows and direct (cut-through)
	// paths. One word per output per cycle.
	for o := 0; o < s.n; o++ {
		tr := s.outRow[o]
		if tr == nil {
			continue
		}
		if tr.direct {
			// The bypass path can only forward words that have already
			// been latched into the first input row: word j is available
			// from cycle head+j+1 and is forwarded one crossbar register
			// later (head+j+2).
			if c < tr.head+int64(tr.pos)+2 {
				continue
			}
		}
		if tr.pos == 0 {
			tr.start = c
		}
		tr.pos++
		if tr.pos == s.k {
			s.complete(o, tr, c)
			s.outRow[o] = nil
		}
	}

	// Arbitration: one wide-memory access per cycle, reads first.
	if !s.tryRead(c) {
		s.tryWrite(c)
	}

	// Ingress.
	for i := 0; i < s.n; i++ {
		if a := s.row1[i]; a != nil && a.count < s.k {
			a.count++
			if a.count == s.k {
				// Tail latched: hand the cell to the second row (unless
				// the bypass crossbar consumed it).
				if a.c != nil {
					if s.row2[i] != nil {
						// Double buffering overrun: the wide memory never
						// accepted the previously staged cell in time; it
						// is overwritten and lost.
						s.counter.Inc("drop-overrun", 1)
					}
					s.row2[i] = &staged{c: a.c, head: a.head, ready: c + 1}
				}
				s.row1[i] = nil
			}
		}
		if heads == nil || heads[i] == nil {
			continue
		}
		nc := heads[i]
		if len(nc.Words) != s.k {
			panic(fmt.Sprintf("widemem: cell of %d words, want %d", len(nc.Words), s.k))
		}
		if s.row1[i] != nil {
			panic(fmt.Sprintf("widemem: head injected mid-cell on input %d", i))
		}
		s.counter.Inc("offered", 1)
		nc.Enqueue = c
		a := &assembling{c: nc, head: c, count: 1}
		// Cut-through bypass (fig. 3 extra datapath): decide at head
		// arrival; the cell then never touches the wide memory.
		if s.cfg.CutThroughCrossbar && s.outRow[nc.Dst] == nil &&
			s.linkFree[nc.Dst] <= c && s.queues.Len(nc.Dst) == 0 {
			s.outRow[nc.Dst] = &transmitting{c: nc, head: c, direct: true}
			s.linkFree[nc.Dst] = c + int64(s.k) + 2
			s.counter.Inc("accepted", 1)
			s.counter.Inc("cutthrough", 1)
			a.c = nil // consumed by the bypass; row1 still fills timing-wise
		}
		s.row1[i] = a
	}

	s.cycle++
}

// tryRead moves one whole cell from the wide memory into an output row.
func (s *Switch) tryRead(c int64) bool {
	for j := 0; j < s.n; j++ {
		o := (s.readRR + j) % s.n
		if s.outRow[o] != nil || s.linkFree[o] > c {
			continue
		}
		addr, ok := s.queues.Front(o)
		if !ok {
			continue
		}
		st := s.mem[addr]
		s.queues.Pop(o)
		s.free.Put(addr)
		s.readRR = (o + 1) % s.n
		// The output row is loaded this cycle; words go on the link from
		// the next cycle.
		s.outRow[o] = &transmitting{c: st.c, head: st.head}
		s.linkFree[o] = c + int64(s.k)
		return true
	}
	return false
}

// tryWrite stores one staged cell (second latch row) into the wide memory.
func (s *Switch) tryWrite(c int64) bool {
	best := -1
	var bestReady int64
	for j := 0; j < s.n; j++ {
		i := (s.writeRR + j) % s.n
		st := s.row2[i]
		if st == nil || c < st.ready {
			continue
		}
		if best == -1 || st.ready < bestReady {
			best, bestReady = i, st.ready
		}
	}
	if best == -1 {
		return false
	}
	st := s.row2[best]
	addr, ok := s.free.Get()
	if !ok {
		return false // retry until the double-buffer deadline drops it
	}
	s.row2[best] = nil
	s.writeRR = (best + 1) % s.n
	s.counter.Inc("accepted", 1)
	s.mem[addr] = stored{c: st.c, head: st.head, wrote: c}
	s.queues.Push(st.c.Dst, addr)
	return true
}

// complete finalizes a transmission.
func (s *Switch) complete(o int, tr *transmitting, c int64) {
	s.counter.Inc("delivered", 1)
	s.cutLat.Add(tr.start - tr.head)
	s.done = append(s.done, core.Departure{
		Cell: tr.c.Clone(), Expected: tr.c, Output: o,
		HeadIn: tr.head, HeadOut: tr.start, TailOut: c,
	})
}
