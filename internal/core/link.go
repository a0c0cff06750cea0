package core

import (
	"fmt"
	"math/bits"
	"slices"

	"pipemem/internal/arb"
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
	// src, when set, makes the record lazy, like the bank deposit it may
	// read (Switch.memLazy): it holds all k words of src masked by m without
	// having copied them. The wave commit sets it, and the words are copied
	// (materialize) only where something reads them — a fault seam
	// reopening the wave, Snapshot, Drain. A sink compares straight off
	// src, and a lean departure reads nothing.
	src *cell.Cell
	m   cell.Word
	// clean records that words were materialized directly from d.c's own
	// payload with no out-of-width bit dropped, so the departing cell is
	// equal to the expected one by construction and the corruption compare
	// can be skipped. Only load sets it.
	clean bool
}

// materialize copies a lazy record's words into its buffer.
func (r *reasm) materialize() {
	if r.src != nil {
		r.load(r.src.Words, r.m)
		r.src = nil
	}
}

// intact reports that the words the record departs equal the injected
// cell's — for a lazy record, masked source word j against injected word
// j, in the one pass that would have copied them.
func (r *reasm) intact() bool {
	want := r.d.c.Words
	if r.src == nil {
		return slices.Equal(r.words, want)
	}
	for j, v := range r.src.Words {
		if v&r.m != want[j] {
			return false
		}
	}
	return true
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
// incoming link (here the row's occupancy; a Switch keeps the register
// words themselves, inRow) and, per outgoing link, the reassembly of
// the one cell it is transmitting. Switch and DualSwitch embed it, with
// the per-port request masks and the two scans over them that the single
// arbiter of §3.3 runs: a rotating find-first over the ready outputs
// (anyReady, arb.FirstFrom, nextReady) and an earliest-deadline scan over
// the pending inputs (earliestPending). The memory organization, and what a grant does to
// it, stay theirs.
//
// An outgoing link carries one cell at a time: a read or write-through wave
// initiated at c₀ books the link through c₀+k, its k-th word is on the wire
// at c₀+k, and the departure is booked at the top of cycle c₀+k, before the
// cycle's arbitration can start the next transmission. rxHead[o] is
// therefore all the egress state an output has; book panics if a second
// transmission ever claims an occupied slot. A wave committed at initiation
// fills its record at once — lazily off the cell it departs, or with a copy
// out of the bank — and completes through the cycle-indexed ring; an open
// wave adds a word per stage.
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
	// and otherwise visits only the set bits. wrSkip[i] = cycle+1 marks
	// input i's arrival as not admittable this cycle (a Switch's Accept
	// verdict with no free address), so the retry scan moves on to the
	// next-most-urgent arrival instead of rescanning it.
	pendingWrites int
	pendMask      portSet
	wrSkip        []int64

	// rxHead is the single egress slot per output, txActive the number of
	// occupied slots, and idleMask has one bit per output whose slot is
	// empty. All three move together, in book and depart.
	rxHead   []*reasm
	txActive int
	idleMask portSet
	// The read arbiter's request vector is occMask ∧ idleMask ∧ openMask,
	// copied into ready for the picker to strike refusals from. occMask
	// has one bit per output with queued cells. openMask is the pushed
	// level of the output gates (Switch.SetOutputOpen); a DualSwitch has
	// no gates and keeps every bit set. Every mask is derived state, never
	// serialized and rebuilt by NewFromSnapshot. readRR and writeRR are the
	// two round-robin pointers, over outputs and inputs.
	occMask, openMask, ready portSet
	readRR, writeRR          int

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
	// leanDepart counts a departure and recycles its record, and builds
	// nothing else; see Switch.SetLeanDepartures.
	leanDepart bool
	// sink, when set, takes each departure inside the Tick that completes
	// it, and Drain stays empty; see SetDepartureSink.
	sink DepartureSink

	counts Counts
	// cutLatency is head-in to head-out in cycles.
	cutLatency *stats.Hist
}

func (l *linkSide) init(n, k, linkPipeline int) {
	l.n, l.k, l.lp = n, k, int64(linkPipeline)
	l.inflight = make([]arrival, n)
	l.wrSkip = make([]int64, n)
	l.rxHead = make([]*reasm, n)
	// The five masks share one backing array, five words up to 64 ports.
	w := (n + 63) >> 6
	m := make(portSet, 5*w)
	l.pendMask, l.idleMask, l.occMask, l.openMask, l.ready = m[:w:w], m[w:2*w:2*w], m[2*w:3*w:3*w], m[3*w:4*w:4*w], m[4*w:]
	for o := 0; o < n; o++ {
		l.idleMask.set(o)
		l.openMask.set(o)
	}
	l.cutLatency = stats.NewHist(4096)
}

// Counts are a switch's event counts. The JSON names are what a
// checkpoint carries; a zero count is left out, and the fields are
// declared in name order, so the encoding is that of a name-sorted map of
// the nonzero counts.
type Counts struct {
	// Accepted counts write waves initiated (cells given a buffer address).
	Accepted int64 `json:"accepted,omitempty"`
	// Corrupt counts departures whose words differ from the offered cell:
	// integrity violations, zero unless faults are injected.
	Corrupt   int64 `json:"corrupt,omitempty"`
	Delivered int64 `json:"delivered,omitempty"`
	// DropOverrun counts cells displaced by the next head before their
	// write wave got a buffer address; DropPolicy arrivals refused by the
	// buffer-management policy; DropPushout queued copies preempted to
	// make room (the last two on a Switch only).
	DropOverrun int64 `json:"drop-overrun,omitempty"`
	DropPolicy  int64 `json:"drop-policy,omitempty"`
	DropPushout int64 `json:"drop-pushout,omitempty"`
	// ECCCorrected counts single-bit upsets SEC-DED corrected, ECCHard
	// corrected locations that failed scrub-verify, ECCUncorrectable
	// multi-bit failures.
	ECCCorrected     int64 `json:"ecc-corrected,omitempty"`
	ECCHard          int64 `json:"ecc-hard,omitempty"`
	ECCUncorrectable int64 `json:"ecc-uncorrectable,omitempty"`
	// MulticastCopies counts queued copies beyond a multicast cell's
	// first, so conservation reads Offered + MulticastCopies == Delivered
	// + dropped + resident.
	MulticastCopies int64 `json:"multicast-copies,omitempty"`
	Offered         int64 `json:"offered,omitempty"`
	// StageWords counts words a wave accessed at its stage rather than at
	// its commit, which only a fault that can still reach it causes.
	StageWords int64 `json:"stage-words,omitempty"`
}

// Counts returns the switch's live event counts.
func (l *linkSide) Counts() *Counts { return &l.counts }

// CutLatency returns the head-in→head-out latency histogram in cycles.
func (l *linkSide) CutLatency() *stats.Hist { return l.cutLatency }

// portSet is a bitset over ports: bit i&63 of word i>>6 is port i, in
// ⌈n/64⌉ words whose bits at or above n stay clear.
type portSet []uint64

func (p portSet) set(i int)      { p[i>>6] |= 1 << uint(i&63) }
func (p portSet) clear(i int)    { p[i>>6] &^= 1 << uint(i&63) }
func (p portSet) has(i int) bool { return p[i>>6]>>uint(i&63)&1 != 0 }

// stray returns the bits of the last word at or above port n, which must
// be none.
func (p portSet) stray(n int) uint64 { return p[len(p)-1] >> uint(n-(len(p)-1)<<6) }

func (l *linkSide) pendSet(i int) {
	l.pendingWrites++
	l.pendMask.set(i)
}

func (l *linkSide) pendClear(i int) {
	l.pendingWrites--
	l.pendMask.clear(i)
}

// after is the round-robin successor of port i.
func (l *linkSide) after(i int) int {
	if i+1 == l.n {
		return 0
	}
	return i + 1
}

// anyReady loads the read arbiter's request vector into ready and reports
// whether any output is ready: a cycle with none costs one AND per word.
// The picker then grants with arb.FirstFrom(ready, readRR), and nextReady
// strikes an output that declined and rotates on. Together they are the
// index walk from the pointer restricted to the outputs that could pass
// its link, gate and queue probes. (anyReady and the first FirstFrom stay
// small enough to inline into the pickers, which run every busy cycle.)
func (l *linkSide) anyReady() bool {
	var any uint64
	for i, w := range l.occMask {
		w &= l.idleMask[i] & l.openMask[i]
		l.ready[i] = w
		any |= w
	}
	return any != 0
}

func (l *linkSide) nextReady(o int) int {
	l.ready.clear(o)
	return arb.FirstFrom(l.ready, l.readRR)
}

// earliestPending returns the arrival the next write wave serves at cycle
// c, or -1: the earliest head among the pending inputs (earliest deadline
// first), skipping heads latched only this cycle and arrivals tried already
// (wrSkip). The bits are visited in index order, so ties go explicitly to
// the smallest round-robin distance from writeRR — the winner of the
// paper's walk from the pointer, which keeps the first strict improvement.
// scanned counts the pending inputs visited.
func (l *linkSide) earliestPending(c int64) (best, scanned int) {
	best = -1
	var bestHead int64
	for wi, m := range l.pendMask {
		for ; m != 0; m &= m - 1 {
			i := wi<<6 | bits.TrailingZeros64(m)
			scanned++
			a := &l.inflight[i]
			if c <= a.head || l.wrSkip[i] > c {
				continue // head arrived only this cycle, or tried already
			}
			if best == -1 || a.head < bestHead ||
				(a.head == bestHead && l.rrDist(i) < l.rrDist(best)) {
				best, bestHead = i, a.head
			}
		}
	}
	return best, scanned
}

// rrDist is input i's distance from the write round-robin pointer — the
// position the paper's walk would visit i at.
func (l *linkSide) rrDist(i int) int {
	d := i - l.writeRR
	if d < 0 {
		d += l.n
	}
	return d
}

// admit records the cell whose head word arrives on input i at cycle c. It
// must be exactly k words long and the link must not be mid-cell (one word
// per cycle: heads are at least k cycles apart). If the row's previous cell
// never obtained a write wave — the buffer was exhausted for its whole
// residency — its words are now being overwritten: it is counted in
// Counts.DropOverrun and returned, no longer referenced by anything here.
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
			l.counts.DropOverrun++
			l.pendClear(i)
			lost = a.c
		}
	}
	l.pendSet(i)
	l.counts.Offered++
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
	r.src = nil
	l.rxHead[o] = r
	l.txActive++
	l.idleMask.clear(o)
	return r
}

// depart books the departure whose last word was on outgoing link o at
// cycle c — the link's record now holds all k words — releases the slot,
// and returns the cell's cut-through latency.
func (l *linkSide) depart(o int, c int64) int64 {
	r := l.rxHead[o]
	l.rxHead[o] = nil
	l.txActive--
	l.idleMask.set(o)
	l.counts.Delivered++
	lat := r.start - r.d.head + 2*l.lp
	switch {
	case l.leanDepart:
		// Counted, not handed out: no Departure, no observed cell, and no
		// read of r.d.c, which the transmit hook may have passed on.
	case l.sink != nil:
		// Booked where it completes: the words are compared here, whatever
		// the record's clean flag says, and nothing is left for Drain.
		intact := r.intact()
		if !intact {
			l.counts.Corrupt++
		}
		l.cutLatency.Add(lat)
		l.sink(r.d.c, o, r.d.head-l.lp, r.start+l.lp, intact)
	default:
		// The observed cell swaps its word buffer with the record's (both
		// stay at capacity k) so the record can return to the pool
		// immediately; the cell itself is reclaimed by the next Drain under
		// recycle mode.
		r.materialize()
		got := l.getCell()
		got.Seq, got.Src, got.Dst, got.VC = r.d.c.Seq, r.d.c.Src, r.d.c.Dst, r.d.c.VC
		got.Copies = nil
		got.Enqueue = r.d.head
		got.Words, r.words = r.words, got.Words[:0]
		if !r.clean && !got.Equal(r.d.c) {
			l.counts.Corrupt++
		}
		l.cutLatency.Add(lat)
		l.done = append(l.done, Departure{
			Cell:      got,
			Expected:  r.d.c,
			Output:    o,
			HeadIn:    r.d.head - l.lp,
			HeadOut:   r.start + l.lp,
			TailOut:   c + l.lp,
			InitDelay: r.d.writeStart - r.d.head - 1,
			VC:        r.d.vc,
		})
	}
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
		l.cellFree = append(l.cellFree, l.doneOut[i].Cell)
		l.doneOut[i] = Departure{}
	}
	out := l.done
	l.done = l.doneOut[:0]
	l.doneOut = out
	return out
}

// SetDrainRecycle switches Drain between allocate-per-batch (off, the
// default) and double-buffered recycling (on); see Drain for the
// ownership contract. Hand-written drivers that tick and drain every cycle
// enable it; callers that retain departures across Drain calls must leave
// it off. (A switch with a departure sink needs neither mode: its
// departures never reach Drain.)
func (l *linkSide) SetDrainRecycle(on bool) {
	l.recycle = on
	if !on {
		l.doneOut = nil
	}
}

// DepartureSink takes an organization's departures where they complete.
// It is called once per departure, inside the Tick whose cycle put the
// cell's tail on output out, with the cell as injected, the cycles its
// head entered and left the switch (at the boundary, as Departure.HeadIn
// and HeadOut), and whether the words on the link equal the injected ones
// (a Switch's Counts.Corrupt has moved already if not; the wide memory and
// PRIZMA model no fault and always report true). The organization reads
// the cell no more once it is handed over.
type DepartureSink func(c *cell.Cell, out int, headIn, headOut int64, intact bool)

// SetDepartureSink installs (or, with nil, removes) the departure sink.
// With one installed no Departure is built and Drain hands out nothing; a
// lean switch (SetLeanDepartures) calls none. Run and a Runner each install
// one for the length of their run; the multistage fabric's last stage
// ejects through one.
func (l *linkSide) SetDepartureSink(f DepartureSink) { l.sink = f }

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
