package core

import (
	"fmt"
	"slices"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/fifo"
	"pipemem/internal/stats"
)

// refSwitch is §3 of the paper transliterated, the oracle the tick engine is
// held to cycle by cycle: k single-ported banks, one row of input registers
// per link latched a word per cycle, one shared row of output registers that
// drive their link the cycle after the load (§3.2), one control register per
// stage, copied by stage s+1 from stage s every cycle (§3.3), and at most one
// wave initiated per cycle (§3.4). No masks, no deposits deferred or made
// early, no pools, no ring, no checkpoint format; one VC per output, no
// gates, no WRR, no link pipelining, read priority. Faults land where they
// would on silicon.
type refSwitch struct {
	cfg                                 Config
	n, k, readRR, writeRR               int
	cycle                               int64
	bank                                [][]cell.Word // [stage][address]
	chk                                 [][]uint8     // SEC-DED check bits, [stage][address]
	ecc                                 *eccCode
	inRow                               [][]cell.Word // [input][word]
	arr                                 []arrival
	outW                                []cell.Word // [stage]: the output register row
	outTo, drove, refcnt                []int       // [stage]: its link+1 (0 unloaded), the link it drove
	ctl                                 []Op        // [stage]: what the stage executes this cycle
	free                                *fifo.FreeList
	q                                   [][]desc // [output], front first
	eg                                  []*reasm // [output]: the transmission on the link
	policy                              bufmgr.Policy
	stuck                               []bool
	counts                              Counts
	wrSkip, inStalls, inDrops, outDrops []int64
	initDelay                           stats.Mean
	cutLat                              *stats.Hist
	done                                []Departure
	sink                                DepartureSink // nil: departures go to done
}

// newRef builds the reference for a valid cfg, and panics on the unmodeled.
func newRef(cfg Config, pol bufmgr.Policy) *refSwitch {
	if cfg = cfg.Canonical(); cfg.VCs > 1 || cfg.LinkPipeline > 0 || cfg.NoReadPriority {
		panic(fmt.Sprintf("reference: VCs=%d LinkPipeline=%d NoReadPriority=%v not modeled", cfg.VCs, cfg.LinkPipeline, cfg.NoReadPriority))
	}
	n, k := cfg.Ports, cfg.Stages
	r := &refSwitch{cfg: cfg, n: n, k: k, policy: pol,
		bank: grid[cell.Word](k, cfg.Cells), chk: grid[uint8](k, cfg.Cells), inRow: grid[cell.Word](n, k),
		arr: make([]arrival, n), outW: make([]cell.Word, k), outTo: make([]int, k), drove: make([]int, k),
		ctl:  make([]Op, k),
		free: fifo.NewFreeList(cfg.Cells), q: make([][]desc, n), refcnt: make([]int, cfg.Cells), eg: make([]*reasm, n),
		stuck:  make([]bool, k),
		wrSkip: make([]int64, n), inStalls: make([]int64, n), inDrops: make([]int64, n), outDrops: make([]int64, n),
		cutLat: stats.NewHist(4096)}
	if cfg.ECC {
		r.ecc = newECC(cfg.WordBits)
	}
	return r
}

// Tick is one cycle of fig. 5: the output registers loaded last cycle drive
// their links, stage 0 gets the new control word and stage s+1 stage s's,
// every stage executes, and the input registers latch.
func (r *refSwitch) Tick(heads []*cell.Cell) {
	c := r.cycle
	for st, to := range r.outTo {
		if r.drove[st], r.outTo[st] = to-1, 0; to > 0 {
			e := r.eg[to-1]
			if len(e.words) == 0 {
				e.start = c
			}
			if e.words = append(e.words, r.outW[st]); len(e.words) == r.k {
				r.depart(to-1, c)
			}
		}
	}
	var op Op
	if !r.pickRead(c, &op) {
		r.pickWrite(c, &op)
	}
	copy(r.ctl[1:], r.ctl[:r.k-1])
	r.ctl[0] = op
	for i, a := range r.arr {
		if a.active && !a.written && c > a.head {
			r.inStalls[i]++
		}
	}
	for st, op := range r.ctl {
		r.exec(st, op)
	}
	m := r.cfg.wordMask()
	for i := range r.arr {
		a := &r.arr[i]
		if j := c - a.head; a.active && j > 0 && j < int64(r.k) {
			r.inRow[i][j] = a.c.Words[j] & m
		}
		if heads == nil || heads[i] == nil {
			continue
		}
		if a.active && !a.written {
			r.drop(&r.counts.DropOverrun, i, a.c.Dst)
		}
		r.counts.Offered++
		heads[i].Enqueue = c
		*a = arrival{c: heads[i], head: c, active: true}
		r.inRow[i][0] = heads[i].Words[0] & m
	}
	r.cycle++
}

// exec performs op's stage-st access: a write takes input register st, a
// read or write-through loads output register st.
func (r *refSwitch) exec(st int, op Op) {
	w := r.inRow[op.In][st]
	switch op.Kind {
	case OpNone:
		return
	case OpRead:
		w = r.read(st, op)
	default:
		if r.bank[st][op.Addr] = w; r.ecc != nil {
			r.chk[st][op.Addr] = r.ecc.encode(w)
		}
	}
	if op.Kind != OpWrite {
		r.outW[st], r.outTo[st] = w, op.Out+1
	}
}

// read is a stage's read through the defense layers: SEC-DED correction
// with scrub and read-after-write verify, all-ones behind stuck data lines.
func (r *refSwitch) read(st int, op Op) cell.Word {
	b, a := st, op.Addr
	sense := func() cell.Word {
		if r.stuck[b] {
			return r.cfg.wordMask()
		}
		return r.bank[b][a]
	}
	if r.ecc == nil {
		return sense()
	}
	dec, status := r.ecc.decode(sense(), r.chk[b][a])
	switch status {
	case eccCorrected:
		if r.counts.ECCCorrected++; !r.stuck[b] {
			r.bank[b][a], r.chk[b][a] = dec, r.ecc.encode(dec)
		}
		if _, vs := r.ecc.decode(sense(), r.chk[b][a]); vs != eccClean {
			r.counts.ECCHard++
		}
	case eccUncorrectable:
		r.counts.ECCUncorrectable++
	}
	return dec
}

// pickRead grants the first idle output, round robin from readRR, whose
// head-of-queue cell may leave (cut-through, or its write wave is done).
func (r *refSwitch) pickRead(c int64, op *Op) bool {
	for j := 0; j < r.n; j++ {
		o := (r.readRR + j) % r.n
		if r.eg[o] != nil || len(r.q[o]) == 0 || !r.cfg.CutThrough && c < r.q[o][0].writeStart+int64(r.k) {
			continue
		}
		d := r.pop(o)
		r.readRR, r.eg[o] = (o+1)%r.n, &reasm{d: d}
		*op = Op{Kind: OpRead, Out: o, Addr: d.addr}
		return true
	}
	return false
}

// pop dequeues output o's front copy, freeing its address with the last.
func (r *refSwitch) pop(o int) desc {
	d := r.q[o][0]
	r.q[o] = r.q[o][1:]
	if r.refcnt[d.addr]--; r.refcnt[d.addr] == 0 {
		r.free.Put(d.addr)
	}
	return d
}

// pickWrite takes the arrival with the earliest head, ties to the nearest
// round robin from writeRR, through the admission policy; it becomes a
// write-through when its output is idle with nothing queued (§3.3).
func (r *refSwitch) pickWrite(c int64, op *Op) bool {
retry:
	best := -1
	for j := 0; j < r.n; j++ {
		i := (r.writeRR + j) % r.n
		if a := &r.arr[i]; a.active && !a.written && c > a.head && r.wrSkip[i] <= c && (best < 0 || a.head < r.arr[best].head) {
			best = i
		}
	}
	if best < 0 {
		return false
	}
	a := &r.arr[best]
	if r.policy != nil {
		switch v := r.policy.Admit(r, a.c.Dst, a.c.VC); v.Action {
		case bufmgr.Drop:
			a.written = true
			r.drop(&r.counts.DropPolicy, best, a.c.Dst)
			goto retry
		case bufmgr.PushOut:
			if o := v.VictimOut; o >= 0 && o < r.n && v.VictimVC == 0 && len(r.q[o]) > 0 {
				r.pop(o)
				r.drop(&r.counts.DropPushout, -1, o)
			}
		}
	}
	addr, ok := r.free.Get()
	if !ok && r.policy != nil {
		r.wrSkip[best] = c + 1
		goto retry
	} else if !ok {
		return false
	}
	a.written, r.writeRR = true, (best+1)%r.n
	r.counts.Accepted++
	r.initDelay.Add(float64(c - a.head - 1))
	d, dst := desc{c: a.c, head: a.head, writeStart: c, vc: a.c.VC, addr: addr}, a.c.Dst
	if r.cfg.CutThrough && len(a.c.Copies) == 0 && r.eg[dst] == nil && len(r.q[dst]) == 0 {
		r.eg[dst] = &reasm{d: d}
		r.free.Put(addr)
		*op = Op{Kind: OpWriteThrough, In: best, Out: dst, Addr: addr}
		return true
	}
	r.refcnt[addr] = 1 + len(a.c.Copies)
	for _, o := range append([]int{dst}, a.c.Copies...) {
		r.q[o] = append(r.q[o], d)
	}
	*op = Op{Kind: OpWrite, In: best, Addr: addr}
	return true
}

// drop books a lost cell by mode (its count), input (-1: a queued copy)
// and output.
func (r *refSwitch) drop(mode *int64, in, out int) {
	if *mode++; in >= 0 {
		r.inDrops[in]++
	}
	r.outDrops[out]++
}

// depart hands off output o's cell, whose k-th word is on the link at c.
func (r *refSwitch) depart(o int, c int64) {
	e, x := r.eg[o], r.eg[o].d.c
	r.eg[o] = nil
	got := &cell.Cell{Seq: x.Seq, Src: x.Src, Dst: x.Dst, VC: x.VC, Enqueue: e.d.head, Words: e.words}
	intact := got.Equal(x)
	if r.counts.Delivered++; !intact {
		r.counts.Corrupt++
	}
	r.cutLat.Add(e.start - e.d.head)
	if r.sink != nil {
		r.sink(x, o, e.d.head, e.start, intact)
		return
	}
	r.done = append(r.done, Departure{Cell: got, Expected: x, Output: o, HeadIn: e.d.head, HeadOut: e.start,
		TailOut: c, InitDelay: e.d.writeStart - e.d.head - 1, VC: e.d.vc})
}

// The fault seams, with Switch's signatures and argument checks.
func (r *refSwitch) InjectMemoryFault(stage, addr int, mask cell.Word) {
	if stage >= 0 && stage < r.k && addr >= 0 && addr < r.cfg.Cells {
		r.bank[stage][addr] ^= mask.Mask(r.cfg.WordBits)
	}
}

func (r *refSwitch) SetStageStuck(st int, on bool) bool {
	changed := r.stuck[st] != on
	r.stuck[st] = on
	return changed
}

func (r *refSwitch) InjectInputRegisterFault(in, word int, mask cell.Word) {
	if in >= 0 && in < r.n && word >= 0 && word < r.k {
		r.inRow[in][word] ^= mask.Mask(r.cfg.WordBits)
	}
}

// trace is the fig. 5 event of the cycle just run, read off the registers:
// each stage's control word, each row's latch, and each output register
// that drove its link.
func (r *refSwitch) trace() TraceEvent {
	e := TraceEvent{Cycle: r.cycle - 1, Ctrl: slices.Clone(r.ctl), InLatch: make([]int, r.n), OutDrive: append([]int(nil), r.drove...)}
	for i, a := range r.arr {
		if e.InLatch[i] = -1; a.active && e.Cycle-a.head < int64(r.k) {
			e.InLatch[i] = int(e.Cycle - a.head)
		}
	}
	return e
}

// The admission policies' view (bufmgr.State).

func (r *refSwitch) Capacity() int           { return r.cfg.Cells }
func (r *refSwitch) Free() int               { return r.free.Free() }
func (r *refSwitch) Queued(out int) int      { return len(r.q[out]) }
func (r *refSwitch) QueuedVC(out, _ int) int { return len(r.q[out]) }
func (r *refSwitch) Ports() int              { return r.n }
func (r *refSwitch) VCs() int                { return 1 }
func (r *refSwitch) CellCycles() int         { return r.k }
func (r *refSwitch) Cycle() int64            { return r.cycle }

func grid[T any](rows, cols int) [][]T {
	g := make([][]T, rows)
	for i := range g {
		g[i] = make([]T, cols)
	}
	return g
}
