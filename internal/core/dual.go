package core

import (
	"fmt"

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
//
// It is bank choice plus two pickers on the wave commit: a wave's whole
// memory traffic is applied when it is initiated and its transmission is
// posted for completion k cycles on, with the argument of Switch.tick —
// a cell's words never change once injected, and stage s of every wave runs
// s cycles after its initiation, so two waves over one address of one bank
// meet each stage in initiation order. There is no per-stage machine here
// to fall back on: the dual switch has no fault seams.
type DualSwitch struct {
	cfg Config
	// linkSide is the periphery §3.5 keeps unchanged (link.go): the same
	// links as Switch, with k = n stages per bank and cells of k words.
	linkSide

	cycle int64

	// mem holds both banks address-major, as Switch.mem does: node b·Cells+a
	// is address a of bank b, and its k words are mem[node·k : node·k+k].
	// free, descs and the per-output queues name buffered cells by node.
	mem    []cell.Word
	free   [2]*fifo.FreeList
	queues *fifo.MultiQueue // per output, of nodes
	descs  []desc           // [node]; desc.addr is the node again

	// writeBank alternates the default bank for writes when no read
	// constrains the choice, balancing occupancy.
	writeBank int

	// departAt[c mod k+1][b] is the output whose transmission, fed by the
	// wave initiated in bank b at cycle c−k, completes at cycle c; -1 for
	// none. Two waves may be initiated per cycle, one per bank, so two
	// departures may complete together — booked in bank order.
	departAt [][2]int

	initDelay stats.Mean
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
	if cfg.VCs > 1 || cfg.ECC || cfg.LinkPipeline != 0 || cfg.NoReadPriority {
		return nil, fmt.Errorf("%w: dual switch has no virtual channels, ECC, link pipelining or write priority (VCs=%d ECC=%v LinkPipeline=%d NoReadPriority=%v)",
			ErrBadConfig, cfg.VCs, cfg.ECC, cfg.LinkPipeline, cfg.NoReadPriority)
	}
	n, k := cfg.Ports, cfg.Ports
	d := &DualSwitch{
		cfg:      cfg,
		mem:      make([]cell.Word, 2*cfg.Cells*k),
		free:     [2]*fifo.FreeList{fifo.NewFreeList(cfg.Cells), fifo.NewFreeList(cfg.Cells)},
		queues:   fifo.NewMultiQueue(n, 2*cfg.Cells),
		descs:    make([]desc, 2*cfg.Cells),
		departAt: make([][2]int, k+1),
	}
	d.linkSide.init(n, k, 0)
	for i := range d.departAt {
		d.departAt[i] = [2]int{-1, -1}
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
func (d *DualSwitch) DroppedCells() int64 { return d.counts.DropOverrun }

// Geometry implements Organization: cells of n words, two banks of Cells.
func (d *DualSwitch) Geometry() Geometry {
	return Geometry{Ports: d.n, CellWords: d.k, WordBits: d.cfg.WordBits, Cells: 2 * d.cfg.Cells}
}

// Report implements Organization.
func (d *DualSwitch) Report(res *RunResult) {
	res.DropOverrun, res.MeanInitDelay = res.Dropped, d.initDelay.Mean()
}

// words returns the k words of a node: one address of one bank.
func (d *DualSwitch) words(node int) []cell.Word { return d.mem[node*d.k : node*d.k+d.k] }

// Tick advances one clock cycle; heads as in Switch.Tick, with cells of
// exactly n words.
func (d *DualSwitch) Tick(heads []*cell.Cell) {
	c := d.cycle
	// Completion: the waves initiated k cycles ago have their k-th word on
	// the wire now.
	slot := int(c % int64(len(d.departAt)))
	for b, o := range d.departAt[slot] {
		if o >= 0 {
			d.departAt[slot][b] = -1
			d.depart(o, c)
		}
	}
	// Arbitration: one read from one bank, one write into the other. Each
	// wave is committed whole as it is picked, and posts its transmission k
	// cycles ahead — the ring slot just emptied, one behind this cycle's.
	post := &d.departAt[(slot+d.k)%len(d.departAt)]
	readBank := d.pickRead(c, post)
	if d.pendingWrites > 0 {
		d.pickWrite(c, readBank, post)
	}
	for i, nc := range heads {
		if nc != nil {
			d.admit(i, nc, c) // an overrun victim is only counted here
		}
	}
	d.cycle++
}

// pickRead selects an idle output whose head-of-queue cell is eligible,
// round-robin from readRR over the ready words (see Switch.pickRead; the
// dual switch's gates all stay open), and initiates its read wave; the
// bank, which it returns (-1 for no read), is dictated by where that cell
// lives (§3.5: "whichever the desired packet happens to be in").
func (d *DualSwitch) pickRead(c int64, post *[2]int) (bank int) {
	if d.anyReady() {
		for o := arb.FirstFrom(d.ready, d.readRR); o >= 0; o = d.nextReady(o) {
			if b := d.tryRead(o, c, post); b >= 0 {
				return b
			}
		}
	}
	return -1
}

// tryRead initiates a read wave on output o — whose link the caller found
// idle and whose queue it found occupied — if the head-of-queue cell is
// serviceable: the cell's k words leave its bank for the link's egress
// record, and the address is free for the next write wave, which can only
// trail this read stage by stage.
func (d *DualSwitch) tryRead(o int, c int64, post *[2]int) (bank int) {
	node, _ := d.queues.Front(o)
	dsc := &d.descs[node]
	if !d.cfg.CutThrough && c < dsc.writeStart+int64(d.k) {
		return -1
	}
	d.queues.Pop(o)
	if d.queues.Len(o) == 0 {
		d.occMask.clear(o)
	}
	d.readRR = d.after(o)
	r := d.book(o, dsc)
	r.words = append(r.words, d.words(node)...)
	r.start = c + 1
	bank = node / d.cfg.Cells
	post[bank] = o
	d.free[bank].Put(node % d.cfg.Cells)
	return bank
}

// pickWrite selects the most urgent pending arrival (Switch.pickWrite's
// earliest-deadline scan) and a bank other than forbidden (§3.5: the write
// goes "into the other one of the two memories"), and initiates its write
// wave — a write-through when the cell's output is idle with nothing
// queued ahead (§3.3).
func (d *DualSwitch) pickWrite(c int64, forbidden int, post *[2]int) {
	best, _ := d.earliestPending(c)
	if best == -1 {
		return
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
			return // both unavailable; retry next cycle
		}
	}
	addr, _ := d.free[b].Get()
	a := &d.inflight[best]
	a.written = true
	d.pendClear(best)
	d.counts.Accepted++
	d.initDelay.Add(float64(c - a.head - 1))
	d.writeRR = d.after(best)
	d.writeBank = 1 - b
	node := b*d.cfg.Cells + addr
	dsc := desc{c: a.c, head: a.head, writeStart: c, addr: node}
	dst, m := a.c.Dst, d.cfg.wordMask()

	if d.cfg.CutThrough && d.rxHead[dst] == nil && d.queues.Len(dst) == 0 {
		// The departing words come straight off the data bus and the
		// address is released at once: nothing could read a deposit.
		r := d.book(dst, &dsc)
		r.load(a.c.Words, m)
		r.start = c + 1
		post[b] = dst
		d.free[b].Put(addr)
		return
	}
	d.descs[node] = dsc
	dep := d.words(node)
	for j, w := range a.c.Words {
		dep[j] = w & m
	}
	d.queues.Push(dst, node)
	d.occMask.set(dst)
}
