package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/stats"
)

// arrival tracks a cell currently occupying an input register row. It is
// stored by value in a per-input slice (no per-cell allocation); active
// marks rows that have held a cell at all.
type arrival struct {
	c    *cell.Cell
	head int64 // cycle the head word was latched
	// written reports that the cell's write wave has been initiated.
	written bool
	active  bool
}

// desc is a buffered cell's descriptor: what the address-management
// circuitry of §3.3 keeps per queued copy of a stored cell. Unicast cells
// have one descriptor; multicast cells have one per destination, all
// sharing one buffer address (refcnt tracks the copies).
type desc struct {
	c          *cell.Cell
	head       int64
	writeStart int64
	vc         int
	addr       int
}

// Departure reports one cell leaving the switch, fully reassembled from
// the simulated wire.
type Departure struct {
	// Cell is the payload observed on the outgoing link.
	Cell *cell.Cell
	// Expected is the cell as injected; integrity demands Cell equals it.
	Expected *cell.Cell
	// Output is the outgoing link.
	Output int
	// HeadIn is the cycle the head word arrived at the switch; HeadOut
	// and TailOut are the cycles the head and tail words left on the
	// outgoing link. HeadOut-HeadIn is the cut-through latency.
	HeadIn, HeadOut, TailOut int64
	// InitDelay is the number of cycles the cell's write wave waited for
	// the stage-0 initiation slot beyond the earliest possible cycle
	// (head+1): the quantity bounded by §3.4.
	InitDelay int64
	// VC is the virtual channel the cell traveled on (0 without VCs).
	VC int
}

// reasm is an outgoing link's reassembly record for the one departure it
// has in flight. The descriptor is embedded by value and the word buffer is
// recycled through the owning link side's pool, so steady-state
// transmission allocates nothing.
type reasm struct {
	d     desc
	words []cell.Word
	start int64 // cycle of head word on the link
	// clean records that words were materialized directly from d.c's own
	// payload with no out-of-width bit dropped, so the departing cell is
	// equal to the expected one by construction and the corruption compare
	// can be skipped. Only the batched commit sets it.
	clean bool
}

// load fills the record with the k words of src masked by m, the word-width
// mask: the whole transmission of a wave committed at initiation, taken
// straight from the resident cell. The record departs the very cell it will
// be compared against, so the corruption check folds into the sweep: it is
// clean exactly when the source was already in-width.
func (r *reasm) load(src []cell.Word, m cell.Word) {
	w := r.words[:len(src)] // the record's capacity is pool-sized to k
	var dirty cell.Word
	for j, v := range src {
		w[j] = v & m
		dirty |= v &^ m
	}
	r.words = w
	r.clean = dirty == 0
}

// linkSide is the periphery of the switch, the part §3 keeps minimal and
// identical whatever memory sits behind it: one row of input registers per
// incoming link (here the row's occupancy; the register words belong to the
// one engine that still latches them, Switch's per-stage path) and, per
// outgoing link, the reassembly of the one cell it is transmitting. Switch —
// on both of its tick engines — and DualSwitch embed it; memory
// organization and arbitration stay theirs.
//
// An outgoing link carries one cell at a time: a read or write-through wave
// initiated at c₀ books the link through c₀+k, its k-th word is on the wire
// at c₀+k, and every engine books that departure at the top of cycle c₀+k,
// before the cycle's arbitration can start the next transmission. rxHead[o]
// is therefore all the egress state an output has; book panics if a second
// transmission ever claims an occupied slot. A wave committed at initiation
// fills its record at once (load, or a copy out of the bank) and completes
// through its engine's cycle-indexed ring; only the per-stage path drives
// the record word by word.
type linkSide struct {
	n, k int
	// lp is Config.LinkPipeline: with §4.3 link pipelining, timestamps are
	// reported at the switch boundary — the head entered lp cycles before
	// it reached the input registers and leaves lp cycles after the output
	// register row drives it.
	lp int64

	inflight []arrival // per input
	// pendingWrites counts input rows holding a cell whose write wave has
	// not been initiated (active && !written) and pendMask has one bit per
	// such input: write arbitration skips its scan when the count is zero
	// and, when n ≤ 64, visits only the set bits. A mask is meaningful only
	// for indexes below 64 (a shift by ≥ 64 contributes no bit).
	pendingWrites int
	pendMask      uint64

	// rxHead is the single egress slot per output, txActive the number of
	// occupied slots, and idleMask has one bit per output whose slot is
	// empty — one term of the read arbiter's ready word. All three move
	// together, in book and depart.
	rxHead   []*reasm
	txActive int
	idleMask uint64

	// Hot-path recycling. reasmFree and cellFree pool the reassembly
	// records and the reassembled ("observed") cells depart builds; records
	// return to the pool as soon as their departure is booked, observed
	// cells only under recycle mode (SetDrainRecycle), where Drain
	// double-buffers its backing array (done/doneOut) and reclaims the
	// previously handed-out batch.
	done, doneOut []Departure
	recycle       bool
	reasmFree     []*reasm
	cellFree      []*cell.Cell
	// leanDepart elides the reassembled observed cell (Departure.Cell is
	// nil), the per-departure corruption compare, and the cut-latency
	// histogram; see Switch.SetLeanDepartures.
	leanDepart bool

	// cOffered…cDropOverrun are hot counter slots (stats.Counter.Hot)
	// bumped without a map lookup.
	counter                                      stats.Counter
	cOffered, cDelivered, cCorrupt, cDropOverrun *int64
	// cutLatency is head-in to head-out in cycles.
	cutLatency *stats.Hist
}

func (l *linkSide) init(n, k, linkPipeline int) {
	l.n, l.k, l.lp = n, k, int64(linkPipeline)
	l.inflight = make([]arrival, n)
	l.rxHead = make([]*reasm, n)
	l.idleMask = uint64(1)<<uint(n) - 1 // n ≥ 64 wraps to all ones
	l.cOffered = l.counter.Hot("offered")
	l.cDelivered = l.counter.Hot("delivered")
	l.cCorrupt = l.counter.Hot("corrupt")
	l.cDropOverrun = l.counter.Hot("drop-overrun")
	l.cutLatency = stats.NewHist(4096)
}

// Counters exposes the event counters: "offered", "accepted", "delivered",
// "drop-overrun" (a new head displaced a cell whose write wave never got
// a buffer address), "corrupt" (integrity violations; must stay zero), and
// on a Switch "drop-policy" (an arrival refused by the installed
// buffer-management policy) and "drop-pushout" (a queued copy preempted to
// make room).
func (l *linkSide) Counters() *stats.Counter { return &l.counter }

// CutLatency returns the head-in→head-out latency histogram in cycles.
func (l *linkSide) CutLatency() *stats.Hist { return l.cutLatency }

func (l *linkSide) pendSet(i int) {
	l.pendingWrites++
	l.pendMask |= uint64(1) << uint(i)
}

func (l *linkSide) pendClear(i int) {
	l.pendingWrites--
	l.pendMask &^= uint64(1) << uint(i)
}

// admit records the cell whose head word arrives on input i at cycle c. It
// must be exactly k words long and the link must not be mid-cell (one word
// per cycle: heads are at least k cycles apart). If the row's previous cell
// never obtained a write wave — the buffer was exhausted for its whole
// residency — its words are now being overwritten: it is counted under
// "drop-overrun" and returned, no longer referenced by anything here.
func (l *linkSide) admit(i int, nc *cell.Cell, c int64) (lost *cell.Cell) {
	if len(nc.Words) != l.k {
		panic(fmt.Sprintf("core: cell of %d words injected into a switch of %d-word cells", len(nc.Words), l.k))
	}
	if nc.Dst < 0 || nc.Dst >= l.n {
		panic(fmt.Sprintf("core: cell destination %d out of range", nc.Dst))
	}
	a := &l.inflight[i]
	if a.active {
		if c-a.head < int64(l.k) {
			panic(fmt.Sprintf("core: head injected mid-cell on input %d (previous head at cycle %d, now %d)", i, a.head, c))
		}
		if !a.written {
			*l.cDropOverrun++
			l.pendClear(i)
			lost = a.c
		}
	}
	l.pendSet(i)
	*l.cOffered++
	nc.Enqueue = c
	*a = arrival{c: nc, head: c, active: true}
	return lost
}

// book claims output o's egress slot for the transmission of d's cell and
// returns its empty reassembly record.
func (l *linkSide) book(o int, d *desc) *reasm {
	if l.rxHead[o] != nil {
		panic(fmt.Sprintf("core: transmission booked on output %d with one already in flight", o))
	}
	r := l.getReasm()
	r.d = *d
	r.words = r.words[:0]
	r.start = 0
	l.rxHead[o] = r
	l.txActive++
	l.idleMask &^= uint64(1) << uint(o)
	return r
}

// drive puts word w on outgoing link o at cycle c — an output register
// loaded last cycle driving its link (§3.2) — and reports whether it was
// the cell's k-th: the departure is complete.
func (l *linkSide) drive(o int, w cell.Word, c int64) bool {
	r := l.rxHead[o]
	if r == nil {
		panic(fmt.Sprintf("core: word on output %d with no departure in flight", o))
	}
	if len(r.words) == 0 {
		r.start = c
	}
	r.words = append(r.words, w)
	return len(r.words) >= l.k
}

// depart books the departure whose last word was on outgoing link o at
// cycle c — the link's record now holds all k words — releases the slot,
// and returns the cell's cut-through latency.
func (l *linkSide) depart(o int, c int64) int64 {
	r := l.rxHead[o]
	l.rxHead[o] = nil
	l.txActive--
	l.idleMask |= uint64(1) << uint(o)
	// The observed cell swaps its word buffer with the record's (both stay
	// at capacity k) so the record can return to the pool immediately; the
	// cell itself is reclaimed by the next Drain under recycle mode. Lean
	// mode skips the materialization and hands out a nil Cell.
	var got *cell.Cell
	if !l.leanDepart {
		got = l.getCell()
		got.Seq, got.Src, got.Dst, got.VC = r.d.c.Seq, r.d.c.Src, r.d.c.Dst, r.d.c.VC
		got.Copies = nil
		got.Enqueue = r.d.head
		got.Words, r.words = r.words, got.Words[:0]
	} else {
		r.words = r.words[:0]
	}
	dep := Departure{
		Cell:      got,
		Expected:  r.d.c,
		Output:    o,
		HeadIn:    r.d.head - l.lp,
		HeadOut:   r.start + l.lp,
		TailOut:   c + l.lp,
		InitDelay: r.d.writeStart - r.d.head - 1,
		VC:        r.d.vc,
	}
	*l.cDelivered++
	lat := dep.HeadOut - dep.HeadIn
	if !l.leanDepart {
		if !r.clean && !got.Equal(r.d.c) {
			*l.cCorrupt++
		}
		l.cutLatency.Add(lat)
	}
	l.done = append(l.done, dep)
	l.reasmFree = append(l.reasmFree, r)
	return lat
}

// Drain returns the departures completed since the last call.
//
// By default every call hands ownership of a freshly allocated slice (and
// freshly reassembled Cells) to the caller. Under recycle mode
// (SetDrainRecycle) the returned slice and the Departure.Cell values it
// references are valid only until the next Drain call: the switch then
// reclaims both the backing array and the reassembled cells, making
// steady-state operation allocation-free. Departure.Expected — the cell
// the caller injected — is never touched by the switch.
func (l *linkSide) Drain() []Departure {
	if !l.recycle {
		d := l.done
		l.done = nil
		return d
	}
	// Reclaim the batch handed out by the previous call: the caller's
	// access window has closed, so its reassembled cells and backing
	// array become this cycle's spares.
	for i := range l.doneOut {
		if c := l.doneOut[i].Cell; c != nil {
			l.cellFree = append(l.cellFree, c)
		}
		l.doneOut[i] = Departure{}
	}
	out := l.done
	l.done = l.doneOut[:0]
	l.doneOut = out
	return out
}

// SetDrainRecycle switches Drain between allocate-per-batch (off, the
// default) and double-buffered recycling (on); see Drain for the
// ownership contract. RunTraffic and the benchmark drivers enable it;
// callers that retain departures across Drain calls must leave it off.
func (l *linkSide) SetDrainRecycle(on bool) {
	l.recycle = on
	if !on {
		l.doneOut = nil
	}
}

// getReasm takes a reassembly record from the pool (or allocates one).
func (l *linkSide) getReasm() *reasm {
	if n := len(l.reasmFree); n > 0 {
		r := l.reasmFree[n-1]
		l.reasmFree[n-1] = nil
		l.reasmFree = l.reasmFree[:n-1]
		r.clean = false
		return r
	}
	return &reasm{words: make([]cell.Word, 0, l.k)}
}

// getCell takes a reassembled-cell shell from the pool (or allocates
// one). The caller overwrites every field.
func (l *linkSide) getCell() *cell.Cell {
	if n := len(l.cellFree); n > 0 {
		c := l.cellFree[n-1]
		l.cellFree[n-1] = nil
		l.cellFree = l.cellFree[:n-1]
		return c
	}
	return &cell.Cell{Words: make([]cell.Word, 0, l.k)}
}
