package core

import (
	"fmt"
	"slices"

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

// OutWordState is the serialized form of one shared output register. This
// build writes the row empty (an open wave's word goes to its egress record
// when read) and on load appends a loaded register's word to its output's
// record.
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
	// InReg[i] is input row i: its occupant's words where it has latched
	// them (with the flips that landed there), and where it has not, the
	// occupant's words too unless a wave or glitch still reads the
	// previous occupant's there.
	InReg  [][]cell.Word
	OutReg []OutWordState
	// Ctrl[slot] is the control word of each ring slot — a glitched word
	// where one was glitched in beside a committed wave still in flight.
	// Loaded lists the stages whose OutReg entry is loaded.
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

	// Committed has one bit per ring slot below 64 whose live wave was
	// committed at initiation. A live slot without it is open from the
	// restore on: a read or write-through whose output's record holds one
	// word per stage run so far is its wave, and so is a write whose
	// descriptor still names it; any other is a glitch (reopen). Slots from
	// 64 on are written open; older files, without the field, are all open.
	Committed uint64 `json:",omitempty"`

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
	committed, err := s.committedMask()
	if err != nil {
		return nil, err
	}
	s.materializeLazy()
	st := &SwitchState{
		Config: s.cfg,
		Cycle:  s.cycle,

		Mem:    banks(s.mem, s.k, s.cfg.Cells),
		InReg:  s.inRegState(),
		OutReg: make([]OutWordState, s.k),
		Ctrl:   make([]Op, s.k),

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

		Committed: committed,
	}
	for slot, op := range s.ctrl {
		if st.Ctrl[slot] = op; s.glitch[slot] != nil && !s.open[slot] && slot != s.slotOf(s.cycle) {
			st.Ctrl[slot] = *s.glitch[slot]
		}
	}
	if s.eccMem != nil {
		st.ECCMem = banks(s.eccMem, s.k, s.cfg.Cells)
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

// committedMask is SwitchState.Committed. Slots from 64 on have no bit, so
// their waves are opened first (behavior-inert); a glitch beside an open
// wave has no place in the one control word a slot serializes.
func (s *Switch) committedMask() (uint64, error) {
	for st := s.k - 1; st >= 1; st-- {
		if slot := s.ctrlSlot(s.cycle, st); slot >= 64 && s.ctrl[slot].Kind != OpNone && !s.open[slot] {
			s.openChain(s.ctrl[slot].Addr, s.cycle-int64(st), s.cycle, false)
		}
	}
	var m uint64
	for slot := range s.ctrl {
		switch {
		case s.glitch[slot] != nil && s.glitch[slot].Kind != OpNone && s.open[slot]:
			return 0, fmt.Errorf("core: snapshot: ring slot %d carries a control glitch beside a wave still off the commit; pmckpt v1 holds one control word per slot", slot)
		case slot < 64 && s.ctrl[slot].Kind != OpNone && !s.open[slot] && s.glitch[slot] == nil:
			m |= uint64(1) << uint(slot)
		}
	}
	return m, nil
}

// inRegState is SwitchState.InReg: each row's occupant words, and the
// register contents where something off the commit still reads them.
func (s *Switch) inRegState() [][]cell.Word {
	out := grid[cell.Word](s.n, s.k)
	for i, row := range out {
		a, reads := &s.inflight[i], s.rowReadOpen(i)
		for j := range row {
			if row[j] = s.rowWord(i, j, s.cycle); a.active && !reads && a.head+int64(j) >= s.cycle {
				row[j] = a.c.Words[j] & s.cfg.wordMask() // not latched yet
			}
		}
	}
	return out
}

// rowReadOpen reports that something off the wave commit may still read
// input row i where its occupant has not latched: an open write of the
// previous occupant, a glitched write, a flip there.
func (s *Switch) rowReadOpen(i int) bool {
	if s.openN == 0 && s.flipOcc == nil {
		return false
	}
	if slot, _ := s.prevWrite(i); slot >= 0 && s.open[slot] {
		return true
	}
	for _, g := range s.glitch {
		if g != nil && g.Kind != OpRead && g.Kind != OpNone && g.In == i {
			return true
		}
	}
	return s.flipPrev != nil && slices.ContainsFunc(s.flipPrev[i], func(f cell.Word) bool { return f != 0 })
}

// prevWrite finds the write wave in flight from input row i's previous
// occupant: its ring slot (-1 for none) and initiation cycle.
func (s *Switch) prevWrite(i int) (int, int64) {
	for st := 1; st < s.k; st++ {
		slot, c0 := s.ctrlSlot(s.cycle, st), s.cycle-int64(st)
		if op := &s.ctrl[slot]; op.Kind != OpNone && op.Kind != OpRead && op.In == i && s.inflight[i].head >= c0 {
			return slot, c0
		}
	}
	return -1, 0
}

// NewFromSnapshot rebuilds a switch from an exported state. The returned
// switch has no observer, tracer, hooks or bufmgr policy installed —
// reattach them before Ticking (a bufmgr policy must be the same policy
// the snapshotted switch ran, or replay diverges).
func NewFromSnapshot(st *SwitchState) (*Switch, error) {
	// The state's tables are checked against the geometry before New sizes
	// the switch by it, so a state cannot make the restore allocate more
	// than it holds itself.
	cfg := st.Config.Canonical()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, k := cfg.Ports, cfg.Stages
	if cfg.VCs > len(st.Queues) {
		return nil, fmt.Errorf("core: switch state has %d queues for %d VCs", len(st.Queues), cfg.VCs)
	}
	if err := checkLens("switch state", map[string]([2]int){
		"Mem":          {len(st.Mem), k},
		"InReg":        {len(st.InReg), n},
		"OutReg":       {len(st.OutReg), k},
		"Ctrl":         {len(st.Ctrl), k},
		"Inflight":     {len(st.Inflight), n},
		"Queues":       {len(st.Queues), n * cfg.VCs},
		"Refcnt":       {len(st.Refcnt), cfg.Cells},
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
		"WriteStartAt": {len(st.WriteStartAt), cfg.Cells},
	}); err != nil {
		return nil, err
	}
	for b, row := range st.Mem {
		if len(row) != cfg.Cells {
			return nil, fmt.Errorf("core: switch state Mem[%d] has %d words, want %d", b, len(row), cfg.Cells)
		}
	}
	if err := st.indexErr(cfg); err != nil {
		return nil, err
	}
	s, err := New(cfg)
	if err != nil {
		return nil, err
	}
	s.cycle = st.Cycle
	if err := loadBanks(s.mem, st.Mem, k, "Mem"); err != nil {
		return nil, err
	}
	if (st.ECCMem != nil) != s.cfg.ECC {
		return nil, fmt.Errorf("core: switch state carries ECC bits=%v, config has ECC=%v", st.ECCMem != nil, s.cfg.ECC)
	}
	if st.ECCMem != nil {
		if err := loadBanks(s.eccMem, st.ECCMem, k, "ECCMem"); err != nil {
			return nil, err
		}
	}
	for i := range st.InReg {
		if len(st.InReg[i]) != k {
			return nil, fmt.Errorf("core: switch state InReg[%d] has %d words, want %d", i, len(st.InReg[i]), k)
		}
	}
	for _, stg := range st.Loaded {
		if stg < 0 || stg >= k {
			return nil, fmt.Errorf("core: switch state loaded stage %d out of range", stg)
		}
	}
	for slot := range st.Ctrl {
		s.setCtrl(slot, &st.Ctrl[slot])
	}

	s.pendingWrites, s.pendMask = 0, 0
	for i := range st.Inflight {
		a := &st.Inflight[i]
		if a.Active {
			if why := cellUnusable(a.Cell, cfg); why != "" {
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
	s.fitNodes()
	for q, list := range st.Queues {
		for i := range list {
			qn := &list[i]
			if qn.Node < 0 || qn.Node >= len(s.nodes) {
				return nil, fmt.Errorf("core: switch state queue %d holds node %d out of range", q, qn.Node)
			}
			if !s.nfree.Allocated(qn.Node) {
				return nil, fmt.Errorf("core: switch state queue %d holds node %d that the free list says is free", q, qn.Node)
			}
			if s.queues.InQueue(qn.Node) {
				return nil, fmt.Errorf("core: switch state queues node %d twice", qn.Node)
			}
			if why := cellUnusable(qn.Desc.Cell, cfg); why != "" {
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
			if why := cellUnusable(rs.Desc.Cell, cfg); why != "" {
				return nil, fmt.Errorf("core: switch state egress %d %s", o, why)
			}
			d := descFromState(&rs.Desc)
			r := s.book(o, &d)
			r.words = append(r.words, rs.Words...)
			r.start = rs.Start
		}
	}
	// A loaded output register drives its link this cycle: its word joins
	// the record (a glitched read's, with no record to fill, goes nowhere).
	for _, stg := range st.Loaded {
		if g := &st.OutReg[stg]; g.Valid && g.Out >= 0 && g.Out < n {
			if r := s.rxHead[g.Out]; r != nil && len(r.words) < k {
				if len(r.words) == 0 {
					r.start = st.Cycle
				}
				r.words = append(r.words, g.Word)
			}
		}
	}
	// Every transmission completes k-1 cycles after its head word: one
	// committed at initiation holds all k words, one off the commit one word
	// per stage run so far.
	for o, r := range s.rxHead {
		if r == nil {
			continue
		}
		if len(r.words) > k {
			return nil, fmt.Errorf("core: switch state egress %d has reassembled %d words of a %d-word cell", o, len(r.words), k)
		}
		cc := r.start + int64(k) - 1
		if cc < st.Cycle || cc >= st.Cycle+int64(k) {
			return nil, fmt.Errorf("core: switch state egress %d holds a departure completing at cycle %d, outside %d…%d", o, cc, st.Cycle, st.Cycle+int64(k)-1)
		}
		slot := s.depSlot(cc)
		if s.departAt[slot] >= 0 {
			return nil, fmt.Errorf("core: switch state schedules two departures for cycle %d", cc)
		}
		s.departAt[slot] = o
	}
	s.reopen(st.Committed)
	s.restoreRows(st.InReg)

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
	// The dirty set is derived, never serialized: it is exactly the
	// addresses holding a word that fails its check bits.
	for a := range s.eccDirty {
		s.eccRecheck(a)
	}
	for _, on := range s.stuck {
		if on {
			s.stuckN++
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
					if why := cellUnusable(cs, cfg); why != "" {
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
	// The redundant state — occupancy, reference counts, free lists, ring
	// and egress census, conservation — must agree with itself.
	if err := s.AuditInvariants(); err != nil {
		return nil, fmt.Errorf("core: restored switch state is inconsistent: %w", err)
	}
	return s, nil
}

// restoreRows rebuilds the input rows from their serialized registers: where
// the occupant has latched a word, what the register holds beyond it is a
// flip; where it has not, the register is the previous occupant's if
// something off the commit reads it there (inRegState), and otherwise the
// previous occupant's words are those of the cell its committed write wave,
// still in flight, writes — found by its descriptor, queued or on its link.
func (s *Switch) restoreRows(rows [][]cell.Word) {
	for i, row := range rows {
		s.prev[i] = append([]cell.Word(nil), row...)
		if slot, c0 := s.prevWrite(i); slot >= 0 && !s.rowReadOpen(i) {
			if w := s.writer(s.ctrl[slot].Addr, c0); w != nil {
				s.prev[i] = w.Words
			}
		}
		for j, a := 0, &s.inflight[i]; a.active && j < s.k && a.head+int64(j) < s.cycle; j++ {
			if f := (row[j] ^ a.c.Words[j]) & s.cfg.wordMask(); f != 0 {
				s.allocFlips()
				s.flipOcc[i][j] = f
			}
		}
	}
}

// reopen marks the ring slots a restored switch runs off the commit: those
// without their bit in committed (every slot from 64 on). A read or
// write-through whose output's record holds one word per stage run so far
// is the slot's wave, and so is a write whose descriptor still names it;
// any other is a glitch beside a wave that completed at initiation, or
// beside none. Stage 0's slot holds the wave that ran its last stage.
func (s *Switch) reopen(committed uint64) {
	c := s.cycle
	for st := s.k - 1; st >= 0; st-- {
		slot, c0 := s.ctrlSlot(c, st), c-int64(st)
		op := s.ctrl[slot]
		if op.Kind == OpNone || slot < 64 && committed&(uint64(1)<<uint(slot)) != 0 {
			continue
		}
		s.openN++
		r := s.rxHead[op.Out]
		if st == 0 || op.Kind == OpWrite && s.writer(op.Addr, c0) != nil ||
			op.Kind != OpWrite && r != nil && r.start == c0+1 && len(r.words) == st {
			s.open[slot] = true
			continue
		}
		s.setCtrl(slot, &Op{})
		s.glitch[slot] = &op
		s.glitchN++
	}
}

// writer is the cell the write wave initiated at c0 stores at addr, found by
// a descriptor still naming it, queued or on its link (nil for none).
func (s *Switch) writer(addr int, c0 int64) *cell.Cell {
	for node := range s.nodes {
		if d := &s.nodes[node]; s.nfree.Allocated(node) && d.addr == addr && d.writeStart == c0 {
			return d.c
		}
	}
	for _, r := range s.rxHead {
		if r != nil && r.d.addr == addr && r.d.writeStart == c0 {
			return r.d.c
		}
	}
	return nil
}

// banks exports a flat address-major array (mem, eccMem) as the per-bank
// view, [stage][address], the serialized schema has always used, keeping
// checkpoint files readable across the layout change.
func banks[T any](flat []T, k, cells int) [][]T {
	out := grid[T](k, cells)
	for b := range out {
		for a := range out[b] {
			out[b][a] = flat[a*k+b]
		}
	}
	return out
}

// loadBanks is banks' inverse, checking the per-bank view's shape.
func loadBanks[T any](flat []T, src [][]T, k int, name string) error {
	if len(src) != k {
		return fmt.Errorf("core: switch state %s has %d banks, want %d", name, len(src), k)
	}
	for b, row := range src {
		if len(row)*k != len(flat) {
			return fmt.Errorf("core: switch state %s[%d] has %d words, want %d", name, b, len(row), len(flat)/k)
		}
		for a, w := range row {
			flat[a*k+b] = w
		}
	}
	return nil
}

func grid[T any](rows, cols int) [][]T {
	g := make([][]T, rows)
	for i := range g {
		g[i] = make([]T, cols)
	}
	return g
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
// will dereference — it must be present, exactly k words, on one of the
// VCs and destined for outputs the switch has — or returns "" when nothing
// is. cfg is canonical.
func cellUnusable(cs *CellState, cfg Config) string {
	switch {
	case cs == nil:
		return "has no cell"
	case len(cs.Words) != cfg.Stages:
		return fmt.Sprintf("holds a cell of %d words, want %d", len(cs.Words), cfg.Stages)
	case cs.Dst < 0 || cs.Dst >= cfg.Ports:
		return fmt.Sprintf("holds a cell for output %d of %d", cs.Dst, cfg.Ports)
	case cs.VC < 0 || cs.VC >= cfg.VCs:
		return fmt.Sprintf("holds a cell on VC %d of %d", cs.VC, cfg.VCs)
	}
	for _, o := range cs.Copies {
		if o < 0 || o >= cfg.Ports {
			return fmt.Sprintf("holds a cell with a copy for output %d of %d", o, cfg.Ports)
		}
	}
	return ""
}

// indexErr reports the first index the state holds outside the geometry
// of cfg (canonical) that the tick uses without a check: a control word's
// input, output or address, a queued descriptor's address or VC, a
// round-robin pointer, a WRR table entry.
func (st *SwitchState) indexErr(cfg Config) error {
	n, vcs := cfg.Ports, cfg.VCs
	for slot, op := range st.Ctrl {
		if op.Kind > OpWriteThrough || op.In < 0 || op.In >= n || op.Out < 0 || op.Out >= n || op.Addr < 0 || op.Addr >= cfg.Cells {
			return fmt.Errorf("core: switch state Ctrl[%d] %+v is not an op on this switch", slot, op)
		}
	}
	for q, list := range st.Queues {
		for _, qn := range list {
			if qn.Desc.Addr < 0 || qn.Desc.Addr >= cfg.Cells || qn.Desc.VC != q%vcs {
				return fmt.Errorf("core: switch state queue %d holds a descriptor of address %d on VC %d", q, qn.Desc.Addr, qn.Desc.VC)
			}
		}
	}
	if st.ReadRR < 0 || st.ReadRR >= n || st.WriteRR < 0 || st.WriteRR >= n {
		return fmt.Errorf("core: switch state round-robin pointers %d, %d out of range 0…%d", st.ReadRR, st.WriteRR, n-1)
	}
	for o, rr := range st.VCRR {
		if rr < 0 || rr >= vcs {
			return fmt.Errorf("core: switch state VCRR[%d] %d out of range 0…%d", o, rr, vcs-1)
		}
	}
	if st.VCWeights == nil && st.VCTokens == nil {
		return nil
	}
	if len(st.VCWeights) != n || len(st.VCTokens) != n {
		return fmt.Errorf("core: switch state WRR tables have %d and %d rows, want %d", len(st.VCWeights), len(st.VCTokens), n)
	}
	for o, w := range st.VCWeights {
		tok := st.VCTokens[o]
		if w == nil && tok == nil {
			continue
		}
		if len(w) != vcs || len(tok) != vcs {
			return fmt.Errorf("core: switch state WRR row %d has %d weights and %d tokens, want %d", o, len(w), len(tok), vcs)
		}
		for vc := range w {
			if w[vc] < 1 || tok[vc] < 0 || tok[vc] > w[vc] {
				return fmt.Errorf("core: switch state WRR row %d VC %d holds %d tokens of weight %d", o, vc, tok[vc], w[vc])
			}
		}
	}
	return nil
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
