package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/stats"
)

// Deterministic state capture of a Switch.
//
// Snapshot walks every piece of loop-carried state the Tick machine
// depends on and externalizes it into plain, JSON-serializable structs;
// NewFromSnapshot rebuilds a switch that continues bit for bit where the
// original left off. The correctness bar is replay equivalence: a run
// restored at cycle k must produce the same departures, the same drops and
// the same trace events as the uninterrupted run.
//
// What is deliberately NOT captured:
//
//   - The recycling pools (reasmFree, cellFree, doneOut) and the cell
//     pool warmth: they only affect allocation, never behavior.
//   - The observability layer (Observer, tracer, shadow tallies): metrics
//     restart from zero after a restore; events emitted after the restore
//     point are still identical to the uninterrupted run's.
//   - Hooks (gates, transmit callbacks) and the bufmgr policy object:
//     callers reinstall them after restore (the checkpoint layer records
//     the policy spec string for exactly this purpose).
//
// Cells appear in several structures at once (an input-register arrival,
// its queued descriptor and its egress reassembly record may all reference
// one *cell.Cell). Snapshot serializes each reference by content, so
// restore breaks the aliasing into distinct copies. This is behaviorally
// invisible: inside the switch a cell's content is read-only, the input
// latching window ends before its departure completes, and integrity
// comparisons are by value.

// CellState is the serialized form of a cell.Cell.
type CellState struct {
	Seq     uint64
	Src     int
	Dst     int
	VC      int
	Copies  []int `json:",omitempty"`
	Enqueue int64
	Words   []cell.Word
}

func cellState(c *cell.Cell) *CellState {
	if c == nil {
		return nil
	}
	st := &CellState{
		Seq: c.Seq, Src: c.Src, Dst: c.Dst, VC: c.VC,
		Enqueue: c.Enqueue,
		Words:   append([]cell.Word(nil), c.Words...),
	}
	if c.Copies != nil {
		st.Copies = append([]int(nil), c.Copies...)
	}
	return st
}

func cellFromState(st *CellState) *cell.Cell {
	if st == nil {
		return nil
	}
	c := &cell.Cell{
		Seq: st.Seq, Src: st.Src, Dst: st.Dst, VC: st.VC,
		Enqueue: st.Enqueue,
		Words:   append([]cell.Word(nil), st.Words...),
	}
	if st.Copies != nil {
		c.Copies = append([]int(nil), st.Copies...)
	}
	return c
}

// OutWordState is the serialized form of one shared output register.
type OutWordState struct {
	Word     cell.Word
	Out      int
	LoadedAt int64
	Valid    bool
}

// ArrivalState is the serialized form of one input register row's
// occupancy.
type ArrivalState struct {
	Cell    *CellState `json:",omitempty"`
	Head    int64
	Written bool
	Active  bool
}

// DescState is the serialized form of a buffered cell's descriptor.
type DescState struct {
	Cell       *CellState
	Head       int64
	WriteStart int64
	VC         int
	Addr       int
}

func descState(d *desc) DescState {
	return DescState{Cell: cellState(d.c), Head: d.head, WriteStart: d.writeStart, VC: d.vc, Addr: d.addr}
}

func descFromState(st *DescState) desc {
	return desc{c: cellFromState(st.Cell), head: st.Head, writeStart: st.WriteStart, vc: st.VC, addr: st.Addr}
}

// QueueNodeState is one descriptor-queue entry: the node index it occupies
// in the shared pool (index identity matters — the node free list's
// allocation order is part of the deterministic state) and the descriptor
// content.
type QueueNodeState struct {
	Node int
	Desc DescState
}

// ReasmState is one departure in flight at an egress link.
type ReasmState struct {
	Desc  DescState
	Words []cell.Word
	Start int64
}

// SwitchState is the complete serialized state of a Switch between Ticks.
// All fields are exported and JSON-round-trippable.
type SwitchState struct {
	Config Config
	Cycle  int64

	Mem    [][]cell.Word
	ECCMem [][]uint8 `json:",omitempty"`
	InReg  [][]cell.Word
	OutReg []OutWordState
	Ctrl   []Op
	Loaded []int

	Inflight []ArrivalState

	// FreeAddrs and FreeNodes are the exact LIFO stacks of the address and
	// descriptor-node free lists (last entry = next allocation).
	FreeAddrs []int32
	FreeNodes []int32
	// Queues[q] lists queue q's nodes front to tail.
	Queues [][]QueueNodeState
	Refcnt []int
	OutOcc []int

	WrSkip   []int64
	InStalls []int64
	InDrops  []int64
	OutDrops []int64

	LinkFree  []int64
	ReadRR    int
	VCRR      []int
	VCWeights [][]int `json:",omitempty"`
	VCTokens  [][]int `json:",omitempty"`
	WriteRR   int

	Egress [][]ReasmState

	Stuck        []bool `json:",omitempty"`
	StageErr     []int
	StageDown    []bool
	Halved       bool
	Failed       bool
	AddrLimit    int
	LastInit     int64
	WriteStartAt []int64

	// Committed marks ctrl-ring slots whose memory traffic the batched
	// fast path already applied (their departures are rebuilt from the
	// egress records holding all K words). ForcedExact records that a
	// per-stage fault seam fired, permanently pinning the exact path.
	// Both are additive to the v1 schema: absent in older files, their
	// zero values describe exactly what older files contain — a fully
	// un-committed, exact-path state.
	Committed   uint64 `json:",omitempty"`
	ForcedExact bool   `json:",omitempty"`

	// InDelay[slot][input] is the §4.3 link-pipelining delay line content
	// (present only when Config.LinkPipeline > 0 and the line has been
	// touched).
	InDelay [][]*CellState `json:",omitempty"`

	Counters   map[string]int64
	InitDelay  stats.MeanState
	CutLatency stats.HistState
}

// Snapshot exports the switch's complete state. It must be taken at a
// cycle boundary with no uncollected departures (call Drain first); the
// departure buffer references recycled cells whose ownership is in flight,
// so checkpointing between Tick and Drain is an error.
func (s *Switch) Snapshot() (*SwitchState, error) {
	if len(s.done) != 0 {
		return nil, fmt.Errorf("core: snapshot with %d uncollected departures; call Drain before Snapshot", len(s.done))
	}
	// While batching, the input registers are not maintained per cycle;
	// bring them to their canonical full-row form so the serialized state
	// is deterministic regardless of how long the fast path ran.
	if s.fastMode {
		s.materializeInReg()
	}
	st := &SwitchState{
		Config: s.cfg,
		Cycle:  s.cycle,

		Mem:    s.memBanks(),
		InReg:  copyWords2(s.inReg),
		OutReg: make([]OutWordState, s.k),
		Ctrl:   append([]Op(nil), s.ctrl...),
		Loaded: append([]int(nil), s.loaded...),

		Inflight: make([]ArrivalState, s.n),

		FreeAddrs: s.free.Snapshot(),
		FreeNodes: s.nfree.Snapshot(),
		Queues:    make([][]QueueNodeState, s.queues.Queues()),
		Refcnt:    append([]int(nil), s.refcnt...),
		OutOcc:    append([]int(nil), s.outOcc...),

		WrSkip:   append([]int64(nil), s.wrSkip...),
		InStalls: append([]int64(nil), s.inStalls...),
		InDrops:  append([]int64(nil), s.inDrops...),
		OutDrops: append([]int64(nil), s.outDrops...),

		LinkFree: append([]int64(nil), s.linkFree...),
		ReadRR:   s.readRR,
		VCRR:     append([]int(nil), s.vcRR...),
		WriteRR:  s.writeRR,

		Egress: make([][]ReasmState, s.n),

		StageErr:     append([]int(nil), s.stageErr...),
		StageDown:    append([]bool(nil), s.stageDown...),
		Halved:       s.halved,
		Failed:       s.failed,
		AddrLimit:    s.addrLimit,
		LastInit:     s.lastInit,
		WriteStartAt: append([]int64(nil), s.writeStartAt...),

		Counters:   s.counter.Snapshot(),
		InitDelay:  s.initDelay.State(),
		CutLatency: s.cutLatency.State(),

		Committed:   s.committed,
		ForcedExact: s.forcedExact,
	}
	if s.eccMem != nil {
		st.ECCMem = make([][]uint8, s.k)
		for b := range st.ECCMem {
			row := make([]uint8, s.cfg.Cells)
			for a := range row {
				row[a] = s.eccMem[s.memIdx(b, a)]
			}
			st.ECCMem[b] = row
		}
	}
	for i := range s.outReg {
		r := &s.outReg[i]
		st.OutReg[i] = OutWordState{Word: r.word, Out: r.out, LoadedAt: r.loadedAt, Valid: r.valid}
	}
	for i := range s.inflight {
		a := &s.inflight[i]
		st.Inflight[i] = ArrivalState{Cell: cellState(a.c), Head: a.head, Written: a.written, Active: a.active}
	}
	for q := range st.Queues {
		list := []QueueNodeState{}
		s.queues.Do(q, func(node int) {
			list = append(list, QueueNodeState{Node: node, Desc: descState(&s.nodes[node])})
		})
		st.Queues[q] = list
	}
	// Zero or one record per output: the link's single egress slot.
	for o, r := range s.rxHead {
		st.Egress[o] = []ReasmState{}
		if r != nil {
			st.Egress[o] = append(st.Egress[o], ReasmState{
				Desc:  descState(&r.d),
				Words: append([]cell.Word(nil), r.words...),
				Start: r.start,
			})
		}
	}
	if s.vcWeights != nil {
		st.VCWeights = copyInts2(s.vcWeights)
		st.VCTokens = copyInts2(s.vcTokens)
	}
	if s.stuck != nil {
		st.Stuck = append([]bool(nil), s.stuck...)
	}
	if s.inDelay != nil {
		st.InDelay = make([][]*CellState, len(s.inDelay))
		for slot := range s.inDelay {
			row := make([]*CellState, s.n)
			for i, c := range s.inDelay[slot] {
				row[i] = cellState(c)
			}
			st.InDelay[slot] = row
		}
	}
	return st, nil
}

// NewFromSnapshot rebuilds a switch from an exported state. The returned
// switch has no observer, tracer, hooks or bufmgr policy installed —
// reattach them before Ticking (a bufmgr policy must be the same policy
// the snapshotted switch ran, or replay diverges).
func NewFromSnapshot(st *SwitchState) (*Switch, error) {
	s, err := New(st.Config)
	if err != nil {
		return nil, err
	}
	n, k := s.n, s.k
	if err := checkLens("switch state", map[string]([2]int){
		"Mem":          {len(st.Mem), k},
		"InReg":        {len(st.InReg), n},
		"OutReg":       {len(st.OutReg), k},
		"Ctrl":         {len(st.Ctrl), k},
		"Inflight":     {len(st.Inflight), n},
		"Queues":       {len(st.Queues), s.queues.Queues()},
		"Refcnt":       {len(st.Refcnt), s.cfg.Cells},
		"OutOcc":       {len(st.OutOcc), n},
		"WrSkip":       {len(st.WrSkip), n},
		"InStalls":     {len(st.InStalls), n},
		"InDrops":      {len(st.InDrops), n},
		"OutDrops":     {len(st.OutDrops), n},
		"LinkFree":     {len(st.LinkFree), n},
		"VCRR":         {len(st.VCRR), n},
		"Egress":       {len(st.Egress), n},
		"StageErr":     {len(st.StageErr), k},
		"StageDown":    {len(st.StageDown), k},
		"WriteStartAt": {len(st.WriteStartAt), s.cfg.Cells},
	}); err != nil {
		return nil, err
	}
	for b := range st.Mem {
		if len(st.Mem[b]) != s.cfg.Cells {
			return nil, fmt.Errorf("core: switch state Mem[%d] has %d words, want %d", b, len(st.Mem[b]), s.cfg.Cells)
		}
		for a, w := range st.Mem[b] {
			s.mem[s.memIdx(b, a)] = w
		}
	}
	if st.ECCMem != nil {
		if s.eccMem == nil {
			return nil, fmt.Errorf("core: switch state carries ECC bits but config has ECC off")
		}
		if len(st.ECCMem) != k {
			return nil, fmt.Errorf("core: switch state ECCMem has %d banks, want %d", len(st.ECCMem), k)
		}
		for b := range st.ECCMem {
			if len(st.ECCMem[b]) != s.cfg.Cells {
				return nil, fmt.Errorf("core: switch state ECCMem[%d] has %d words, want %d", b, len(st.ECCMem[b]), s.cfg.Cells)
			}
			for a, chk := range st.ECCMem[b] {
				s.eccMem[s.memIdx(b, a)] = chk
			}
		}
	} else if s.eccMem != nil {
		return nil, fmt.Errorf("core: config has ECC on but switch state carries no ECC bits")
	}
	for i := range st.InReg {
		if len(st.InReg[i]) != k {
			return nil, fmt.Errorf("core: switch state InReg[%d] has %d words, want %d", i, len(st.InReg[i]), k)
		}
		copy(s.inReg[i], st.InReg[i])
	}
	for i, r := range st.OutReg {
		s.outReg[i] = outWord{word: r.Word, out: r.Out, loadedAt: r.LoadedAt, valid: r.Valid}
	}
	copy(s.ctrl, st.Ctrl)
	// Rebuild the SoA occupancy bookkeeping from the restored ring; the
	// committed mask is sanitized against it (a committed bit is only
	// meaningful on a slot holding a live op). The switch restarts on the
	// exact path — committed slots are skipped there — and the deferred
	// flip in Tick re-enters the batched path on the first cycle it is
	// legal, so a fast-captured snapshot resumes at full speed.
	s.waveMask = 0
	for slot := range s.ctrl {
		if s.ctrl[slot].Kind != OpNone && slot < 64 {
			s.waveMask |= uint64(1) << uint(slot)
		}
	}
	s.committed = st.Committed & s.waveMask
	s.forcedExact = st.ForcedExact
	for _, stg := range st.Loaded {
		if stg < 0 || stg >= k {
			return nil, fmt.Errorf("core: switch state loaded stage %d out of range", stg)
		}
	}
	s.loaded = append(s.loaded[:0], st.Loaded...)

	s.pendingWrites, s.pendMask = 0, 0
	for i := range st.Inflight {
		a := &st.Inflight[i]
		if a.Active {
			if why := cellUnusable(a.Cell, n, k); why != "" {
				return nil, fmt.Errorf("core: switch state arrival on input %d %s", i, why)
			}
		}
		s.inflight[i] = arrival{c: cellFromState(a.Cell), head: a.Head, written: a.Written, active: a.Active}
		if a.Active && !a.Written {
			s.pendSet(i)
		}
	}

	if err := s.free.RestoreState(st.FreeAddrs); err != nil {
		return nil, fmt.Errorf("core: restore address free list: %w", err)
	}
	if err := s.nfree.RestoreState(st.FreeNodes); err != nil {
		return nil, fmt.Errorf("core: restore descriptor free list: %w", err)
	}
	for q, list := range st.Queues {
		for i := range list {
			qn := &list[i]
			if qn.Node < 0 || qn.Node >= len(s.nodes) {
				return nil, fmt.Errorf("core: switch state queue %d holds node %d out of range", q, qn.Node)
			}
			if !s.nfree.Allocated(qn.Node) {
				return nil, fmt.Errorf("core: switch state queue %d holds node %d that the free list says is free", q, qn.Node)
			}
			if why := cellUnusable(qn.Desc.Cell, n, k); why != "" {
				return nil, fmt.Errorf("core: switch state queue %d node %d %s", q, qn.Node, why)
			}
			s.nodes[qn.Node] = descFromState(&qn.Desc)
			s.queues.Push(q, qn.Node)
		}
	}
	copy(s.refcnt, st.Refcnt)
	copy(s.outOcc, st.OutOcc)
	copy(s.linkFree, st.LinkFree)
	// The occupancy and idle words are derived, never serialized: occMask
	// here, idleMask as the egress slots are re-booked below. The gate
	// levels are the caller's state: every output restarts open.
	s.occMask = 0
	for o, occ := range s.outOcc {
		if occ > 0 {
			s.occMask |= uint64(1) << uint(o) // o ≥ 64 shifts to 0: mask unused there
		}
	}
	// Restored payloads live in st.Mem; no deposit is deferred.
	for a := range s.memLazy {
		s.memLazy[a] = nil
	}
	s.lazyCount = 0

	copy(s.wrSkip, st.WrSkip)
	copy(s.inStalls, st.InStalls)
	copy(s.inDrops, st.InDrops)
	copy(s.outDrops, st.OutDrops)

	s.readRR = st.ReadRR
	copy(s.vcRR, st.VCRR)
	s.writeRR = st.WriteRR
	if st.VCWeights != nil {
		s.vcWeights = copyInts2(st.VCWeights)
		s.vcTokens = copyInts2(st.VCTokens)
	}

	for o, list := range st.Egress {
		if len(list) > 1 {
			return nil, fmt.Errorf("core: switch state egress %d holds %d records; a link carries one cell at a time", o, len(list))
		}
		for i := range list {
			rs := &list[i]
			if why := cellUnusable(rs.Desc.Cell, n, k); why != "" {
				return nil, fmt.Errorf("core: switch state egress %d %s", o, why)
			}
			if len(rs.Words) > k {
				return nil, fmt.Errorf("core: switch state egress %d has reassembled %d words of a %d-word cell", o, len(rs.Words), k)
			}
			d := descFromState(&rs.Desc)
			r := s.book(o, &d)
			r.words = append(r.words, rs.Words...)
			r.start = rs.Start
			// A record already holding all K words is a departure the
			// batched path committed whole: the exact drive appends the
			// K-th word and completes in the same phase, so it never
			// serializes a full record. Re-post it to the completion ring
			// (head on the link at Start ⇒ tail, and completion, at
			// Start+K-1).
			if len(r.words) == k {
				cc := r.start + int64(k) - 1
				if cc < st.Cycle || cc >= st.Cycle+int64(k) {
					return nil, fmt.Errorf("core: switch state egress %d holds a committed departure completing at cycle %d, outside %d…%d", o, cc, st.Cycle, st.Cycle+int64(k)-1)
				}
				slot := s.depSlot(cc)
				if s.departAt[slot] >= 0 {
					return nil, fmt.Errorf("core: switch state schedules two committed departures for cycle %d", cc)
				}
				s.departAt[slot] = o
			}
		}
	}

	if st.Stuck != nil {
		if len(st.Stuck) != k {
			return nil, fmt.Errorf("core: switch state Stuck has %d banks, want %d", len(st.Stuck), k)
		}
		s.stuck = append([]bool(nil), st.Stuck...)
	}
	copy(s.stageErr, st.StageErr)
	copy(s.stageDown, st.StageDown)
	s.halved = st.Halved
	s.failed = st.Failed
	if st.AddrLimit < 0 || st.AddrLimit > s.cfg.Cells {
		return nil, fmt.Errorf("core: switch state address limit %d out of range 0…%d", st.AddrLimit, s.cfg.Cells)
	}
	s.addrLimit = st.AddrLimit
	s.lastInit = st.LastInit
	copy(s.writeStartAt, st.WriteStartAt)
	// The dirty set is derived, never serialized: an upset leaves a word
	// that fails its check bits, so flagging every address holding one puts
	// a resumed run on the same engine as the uninterrupted one.
	if s.eccMem != nil {
		for a := range s.eccDirty {
			if !s.addrClean(a) {
				s.eccDirty[a] = true
				s.eccDirtyN++
			}
		}
	}

	if st.InDelay != nil {
		r := s.cfg.LinkPipeline
		if len(st.InDelay) != r {
			return nil, fmt.Errorf("core: switch state delay line has %d slots, config pipelines %d", len(st.InDelay), r)
		}
		s.inDelay = make([][]*cell.Cell, r)
		s.delayScratch = make([]*cell.Cell, n)
		s.delayCount = 0
		for slot := range st.InDelay {
			if len(st.InDelay[slot]) != n {
				return nil, fmt.Errorf("core: switch state delay slot %d has %d inputs, want %d", slot, len(st.InDelay[slot]), n)
			}
			s.inDelay[slot] = make([]*cell.Cell, n)
			for i, cs := range st.InDelay[slot] {
				if cs != nil { // an empty slot is the common case
					if why := cellUnusable(cs, n, k); why != "" {
						return nil, fmt.Errorf("core: switch state delay slot %d input %d %s", slot, i, why)
					}
				}
				c := cellFromState(cs)
				s.inDelay[slot][i] = c
				if c != nil {
					s.delayCount++
				}
			}
		}
	}

	for name, v := range st.Counters {
		s.counter.Set(name, v)
	}
	s.initDelay.RestoreState(st.InitDelay)
	if err := s.cutLatency.RestoreState(st.CutLatency); err != nil {
		return nil, fmt.Errorf("core: restore cut-latency histogram: %w", err)
	}
	s.cycle = st.Cycle
	return s, nil
}

// memBanks exports the flat address-major buffer as the per-bank 2D view
// ([stage][address]) the serialized schema has always used, keeping
// checkpoint files readable across the layout change.
func (s *Switch) memBanks() [][]cell.Word {
	s.materializeLazy()
	out := make([][]cell.Word, s.k)
	for b := range out {
		row := make([]cell.Word, s.cfg.Cells)
		for a := range row {
			row[a] = s.mem[s.memIdx(b, a)]
		}
		out[b] = row
	}
	return out
}

func copyWords2(src [][]cell.Word) [][]cell.Word {
	out := make([][]cell.Word, len(src))
	for i := range src {
		out[i] = append([]cell.Word(nil), src[i]...)
	}
	return out
}

func copyInts2(src [][]int) [][]int {
	out := make([][]int, len(src))
	for i := range src {
		if src[i] != nil {
			out[i] = append([]int(nil), src[i]...)
		}
	}
	return out
}

// cellUnusable says what is wrong with a serialized cell the tick engines
// will dereference — it must be present, exactly k words, and destined for
// one of the n outputs — or returns "" when nothing is.
func cellUnusable(cs *CellState, n, k int) string {
	switch {
	case cs == nil:
		return "has no cell"
	case len(cs.Words) != k:
		return fmt.Sprintf("holds a cell of %d words, want %d", len(cs.Words), k)
	case cs.Dst < 0 || cs.Dst >= n:
		return fmt.Sprintf("holds a cell for output %d of %d", cs.Dst, n)
	}
	return ""
}

// checkLens validates a batch of {got, want} slice lengths.
func checkLens(what string, lens map[string][2]int) error {
	for name, gw := range lens {
		if gw[0] != gw[1] {
			return fmt.Errorf("core: %s field %s has %d entries, want %d", what, name, gw[0], gw[1])
		}
	}
	return nil
}
