package core

import (
	"fmt"
	"math/bits"

	"pipemem/internal/arb"
	"pipemem/internal/cell"
	"pipemem/internal/fifo"
	"pipemem/internal/stats"
)

// DualSwitch is the half-quantum organization of §3.5: an n×n switch whose
// cells are n words (half the canonical quantum), buffered in two pipelined
// memories of n stages each. In each and every cycle one read wave may be
// initiated from one of the two memories — whichever holds the desired
// cell — while one write wave is initiated into the other, so the full
// aggregate throughput (one cell in, one cell out per cell time per port)
// is sustained with cells of half the §3.5 quantum.
type DualSwitch struct {
	cfg Config
	// linkSide is the periphery §3.5 keeps unchanged (link.go): the same
	// links as Switch, with k = n stages per bank and cells of k words.
	linkSide

	cycle int64

	banks [2]*bank

	inReg [][]cell.Word // [input][k]

	free   [2]*fifo.FreeList
	queues *fifo.MultiQueue // per output; node = bank*cells + addr
	descs  [][]desc         // [bank][addr]

	readRR  int
	writeRR int
	// writeBank alternates the default bank for writes when no read
	// constrains the choice, balancing occupancy.
	writeBank int

	// maskable enables the uint64 occupancy bitmasks on the ctrl ring and
	// output registers (k ≤ 64); larger switches fall back to full scans.
	maskable bool
	// occMask has one bit per output with queued cells; ANDed with the
	// link side's idleMask it is the read arbiter's ready word, as in
	// Switch (maskable only).
	occMask uint64

	initDelay stats.Mean
}

// bank is one of the two pipelined memories. Control is a ring indexed by
// initiation cycle (slot = c₀ mod k) rather than a shifting array: the op
// initiated at c₀ executes stage c−c₀ at cycle c and retires when its slot
// comes around again — the per-cycle k-deep Op shift becomes free. at[]
// holds each slot's initiation cycle; mask/count track occupied slots and
// loaded output registers so idle banks cost one compare per cycle.
type bank struct {
	mem    [][]cell.Word // [stage][addr]
	ctrl   []Op          // [slot]
	at     []int64       // [slot] initiation cycle
	outReg []outWord

	mask     uint64 // occupied ctrl slots (k ≤ 64)
	count    int    // occupied ctrl slots
	outMask  uint64 // loaded output registers (k ≤ 64)
	outCount int    // loaded output registers
}

// NewDual builds the two-memory half-quantum switch. cfg.Stages, if set,
// must equal Ports (the per-bank stage count); Cells is the capacity per
// bank. Everything else Config can ask for beyond CutThrough is a feature
// of the single-memory Switch and is refused with ErrBadConfig.
func NewDual(cfg Config) (*DualSwitch, error) {
	cfg = cfg.Canonical()
	if cfg.Stages == 2*cfg.Ports {
		cfg.Stages = cfg.Ports // canonical half-quantum
	}
	if cfg.Stages != cfg.Ports {
		return nil, fmt.Errorf("%w: dual switch needs Stages = Ports (half quantum), got %d stages for %d ports", ErrBadConfig, cfg.Stages, cfg.Ports)
	}
	if cfg.Ports < 2 {
		return nil, fmt.Errorf("%w: dual switch needs ≥ 2 ports", ErrBadConfig)
	}
	if cfg.WordBits < 1 || cfg.WordBits > 64 {
		return nil, fmt.Errorf("%w: word width %d out of 1…64", ErrBadConfig, cfg.WordBits)
	}
	if cfg.Cells < 1 {
		return nil, fmt.Errorf("%w: capacity %d cells per bank, need ≥ 1", ErrBadConfig, cfg.Cells)
	}
	// The half-quantum model implements none of these; refuse them rather
	// than run as if they had not been asked for.
	if cfg.VCs > 1 || cfg.ECC || cfg.BypassThreshold != 0 || cfg.LinkPipeline != 0 || cfg.NoReadPriority {
		return nil, fmt.Errorf("%w: dual switch has no virtual channels, ECC, stage bypass, link pipelining or write priority (VCs=%d ECC=%v BypassThreshold=%d LinkPipeline=%d NoReadPriority=%v)",
			ErrBadConfig, cfg.VCs, cfg.ECC, cfg.BypassThreshold, cfg.LinkPipeline, cfg.NoReadPriority)
	}
	n, k := cfg.Ports, cfg.Ports
	d := &DualSwitch{
		cfg:      cfg,
		inReg:    make([][]cell.Word, n),
		queues:   fifo.NewMultiQueue(n, 2*cfg.Cells),
		maskable: k <= 64,
	}
	d.linkSide.init(n, k, 0)
	for b := 0; b < 2; b++ {
		bk := &bank{
			mem:    make([][]cell.Word, k),
			ctrl:   make([]Op, k),
			at:     make([]int64, k),
			outReg: make([]outWord, k),
		}
		for st := range bk.mem {
			bk.mem[st] = make([]cell.Word, cfg.Cells)
		}
		d.banks[b] = bk
		d.free[b] = fifo.NewFreeList(cfg.Cells)
	}
	d.descs = [][]desc{make([]desc, cfg.Cells), make([]desc, cfg.Cells)}
	for i := range d.inReg {
		d.inReg[i] = make([]cell.Word, k)
	}
	return d, nil
}

// Config returns the effective configuration (Stages = Ports).
func (d *DualSwitch) Config() Config { return d.cfg }

// Cycle returns the number of Ticks so far.
func (d *DualSwitch) Cycle() int64 { return d.cycle }

// Buffered returns cells resident in either bank's queues.
func (d *DualSwitch) Buffered() int { return d.queues.Total() }

// Resident counts cells buffered, awaiting a write wave, or leaving.
func (d *DualSwitch) Resident() int { return d.Buffered() + d.pendingWrites + d.txActive }

// DroppedCells returns the overruns, the dual switch's one loss mode.
func (d *DualSwitch) DroppedCells() int64 { return d.counter.Get("drop-overrun") }

// Geometry implements Organization: cells of n words, two banks of Cells.
func (d *DualSwitch) Geometry() Geometry {
	return Geometry{Ports: d.n, CellWords: d.k, WordBits: d.cfg.WordBits, Cells: 2 * d.cfg.Cells}
}

// Report implements Organization.
func (d *DualSwitch) Report(res *RunResult) {
	res.DropOverrun, res.MeanInitDelay = res.Dropped, d.initDelay.Mean()
}

// node packs (bank, addr) into a MultiQueue node index.
func (d *DualSwitch) node(b, addr int) int    { return b*d.cfg.Cells + addr }
func (d *DualSwitch) unpack(n int) (b, a int) { return n / d.cfg.Cells, n % d.cfg.Cells }

// Tick advances one clock cycle; heads as in Switch.Tick, with cells of
// exactly n words.
func (d *DualSwitch) Tick(heads []*cell.Cell) {
	c := d.cycle

	// Dead-cycle shortcut: no arrivals, no arrival awaiting its write
	// wave, nothing queued, both control rings retired and both output
	// register rows drained — the only state this cycle would change is
	// the clock. (An arrival still streaming its tail words into the
	// input registers keeps either pendingWrites or its write wave's ring
	// slot nonzero for as long as any of those words will be read.)
	if heads == nil && d.pendingWrites == 0 && d.queues.Total() == 0 &&
		d.banks[0].count == 0 && d.banks[1].count == 0 &&
		d.banks[0].outCount == 0 && d.banks[1].outCount == 0 {
		d.cycle++
		return
	}

	// Egress from both banks' output register rows. A loaded register is
	// always delivered on the following cycle, so every occupied slot
	// fires; the masks only skip the empty ones.
	for b := 0; b < 2; b++ {
		bk := d.banks[b]
		if bk.outCount == 0 {
			continue
		}
		if d.maskable {
			for m := bk.outMask; m != 0; m &= m - 1 {
				st := bits.TrailingZeros64(m)
				r := &bk.outReg[st]
				if r.valid && r.loadedAt == c-1 {
					d.deliver(r.out, r.word, c)
					r.valid = false
					bk.outMask &^= uint64(1) << uint(st)
					bk.outCount--
				}
			}
		} else {
			for st := range bk.outReg {
				r := &bk.outReg[st]
				if r.valid && r.loadedAt == c-1 {
					d.deliver(r.out, r.word, c)
					r.valid = false
					bk.outCount--
				}
			}
		}
	}

	// Retire the slot whose op was initiated k cycles ago: its final
	// stage executed last cycle, and this cycle's initiation (if any)
	// reuses the slot.
	slot := int(c % int64(d.k))
	bit := uint64(1) << uint(slot&63)
	for b := 0; b < 2; b++ {
		bk := d.banks[b]
		if bk.ctrl[slot].Kind != OpNone {
			bk.ctrl[slot] = Op{}
			bk.mask &^= bit
			bk.count--
		}
	}

	// Arbitration: one read from one bank, one write into the other.
	readBank := -1
	var readOp Op
	if rb, op, ok := d.pickRead(c); ok {
		readBank = rb
		readOp = op
	}
	writeBank := -1
	var writeOp Op
	if d.pendingWrites > 0 {
		// The write must avoid the bank being read this cycle.
		forbidden := readBank
		if wb, op, ok := d.pickWrite(c, forbidden); ok {
			writeBank = wb
			writeOp = op
		}
	}
	if readBank >= 0 {
		bk := d.banks[readBank]
		bk.ctrl[slot] = readOp
		bk.at[slot] = c
		bk.mask |= bit
		bk.count++
	}
	if writeBank >= 0 {
		bk := d.banks[writeBank]
		bk.ctrl[slot] = writeOp
		bk.at[slot] = c
		bk.mask |= bit
		bk.count++
	}

	// Execute each bank's live ops. The op in slot s was initiated at
	// at[s], so this cycle it acts on stage c−at[s]; distinct live slots
	// map to distinct stages, and stages touch disjoint state, so
	// execution order within a cycle is immaterial.
	for b := 0; b < 2; b++ {
		bk := d.banks[b]
		if bk.count == 0 {
			continue
		}
		if d.maskable {
			for m := bk.mask; m != 0; m &= m - 1 {
				d.execOp(bk, bits.TrailingZeros64(m), c)
			}
		} else {
			for s := range bk.ctrl {
				if bk.ctrl[s].Kind != OpNone {
					d.execOp(bk, s, c)
				}
			}
		}
	}

	// Ingress.
	for i := 0; i < d.n; i++ {
		a := &d.inflight[i]
		if a.active {
			if j := c - a.head; j > 0 && j < int64(d.k) {
				d.inReg[i][j] = a.c.Words[j].Mask(d.cfg.WordBits)
			}
		}
		if heads == nil || heads[i] == nil {
			continue
		}
		d.admit(i, heads[i], c) // an overrun victim is only counted here
		d.inReg[i][0] = heads[i].Words[0].Mask(d.cfg.WordBits)
	}

	d.cycle++
}

// execOp runs the op in slot s of bank bk at its current stage.
func (d *DualSwitch) execOp(bk *bank, s int, c int64) {
	op := &bk.ctrl[s]
	st := int(c - bk.at[s])
	switch op.Kind {
	case OpWrite:
		bk.mem[st][op.Addr] = d.inReg[op.In][st]
	case OpRead:
		bk.outReg[st] = outWord{word: bk.mem[st][op.Addr], out: op.Out, loadedAt: c, valid: true}
		bk.outMask |= uint64(1) << uint(st&63)
		bk.outCount++
	case OpWriteThrough:
		w := d.inReg[op.In][st]
		bk.mem[st][op.Addr] = w
		bk.outReg[st] = outWord{word: w, out: op.Out, loadedAt: c, valid: true}
		bk.outMask |= uint64(1) << uint(st&63)
		bk.outCount++
	}
}

// pickRead selects an idle output whose head-of-queue cell is eligible,
// round-robin from readRR over the ready word (see Switch.pickRead); the
// bank is dictated by where that cell lives (§3.5: "whichever the desired
// packet happens to be in").
func (d *DualSwitch) pickRead(c int64) (bankIdx int, op Op, ok bool) {
	if !d.maskable {
		// k > 64: the words cannot hold every output; probe them all.
		for j, from := 0, d.readRR; j < d.n && !ok; j++ {
			bankIdx, op, ok = d.tryRead((from+j)%d.n, c)
		}
		return bankIdx, op, ok
	}
	for w := d.occMask & d.idleMask; w != 0 && !ok; {
		o := arb.FirstFrom(w, d.readRR)
		bankIdx, op, ok = d.tryRead(o, c)
		w &^= uint64(1) << uint(o)
	}
	return bankIdx, op, ok
}

// tryRead initiates a read wave on output o if its link is idle and its
// head-of-queue cell is serviceable.
func (d *DualSwitch) tryRead(o int, c int64) (bankIdx int, op Op, ok bool) {
	node, found := d.queues.Front(o)
	if !found || d.rxHead[o] != nil {
		return -1, Op{}, false
	}
	b, addr := d.unpack(node)
	dsc := &d.descs[b][addr]
	if !d.cfg.CutThrough && c < dsc.writeStart+int64(d.k) {
		return -1, Op{}, false
	}
	d.queues.Pop(o)
	if d.queues.Len(o) == 0 {
		d.occMask &^= uint64(1) << uint(o)
	}
	if d.readRR = o + 1; d.readRR == d.n {
		d.readRR = 0
	}
	d.book(o, dsc)
	d.free[b].Put(addr)
	return b, Op{Kind: OpRead, Out: o, Addr: addr}, true
}

// pickWrite selects the most urgent pending arrival and a bank other than
// forbidden (§3.5: the write goes "into the other one of the two
// memories").
func (d *DualSwitch) pickWrite(c int64, forbidden int) (bankIdx int, op Op, ok bool) {
	best := -1
	var bestHead int64
	for j := 0; j < d.n; j++ {
		i := (d.writeRR + j) % d.n
		a := &d.inflight[i]
		if !a.active || a.written || c <= a.head {
			continue
		}
		if best == -1 || a.head < bestHead {
			best, bestHead = i, a.head
		}
	}
	if best == -1 {
		return -1, Op{}, false
	}
	// Choose the bank: not the one being read; otherwise alternate,
	// preferring one with free space.
	b := d.writeBank
	if forbidden >= 0 {
		b = 1 - forbidden
	}
	if d.free[b].Free() == 0 {
		b = 1 - b
		if b == forbidden || d.free[b].Free() == 0 {
			return -1, Op{}, false // both unavailable; retry next cycle
		}
	}
	addr, got := d.free[b].Get()
	if !got {
		return -1, Op{}, false
	}
	a := &d.inflight[best]
	a.written = true
	d.pendClear(best)
	d.counter.Inc("accepted", 1)
	d.initDelay.Add(float64(c - a.head - 1))
	d.writeRR = (best + 1) % d.n
	d.writeBank = 1 - b
	dsc := desc{c: a.c, head: a.head, writeStart: c}
	dst := a.c.Dst

	if d.cfg.CutThrough && d.rxHead[dst] == nil && d.queues.Len(dst) == 0 {
		d.descs[b][addr] = dsc
		d.book(dst, &d.descs[b][addr])
		d.free[b].Put(addr)
		return b, Op{Kind: OpWriteThrough, In: best, Out: dst, Addr: addr}, true
	}
	d.descs[b][addr] = dsc
	d.queues.Push(dst, d.node(b, addr))
	d.occMask |= uint64(1) << uint(dst)
	return b, Op{Kind: OpWrite, In: best, Addr: addr}, true
}

// deliver drives one word onto outgoing link o; the k-th completes the
// link's departure.
func (d *DualSwitch) deliver(o int, w cell.Word, c int64) {
	if d.drive(o, w, c) {
		d.depart(o, c)
	}
}
