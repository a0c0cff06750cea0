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
// The schema is the switch's state field for field: flat memory as the
// banks hold it, both buffers of every input row, and per ring slot the
// control word and whether its wave runs off the wave commit. Nothing is
// inferred on either side, so every cycle boundary can be written.
//
// What is deliberately NOT captured:
//
//   - The recycling pools (reasmFree, cellFree, doneOut) and the cell
//     pool warmth: they only affect allocation, never behavior.
//   - The observability layer (Observer, tracer, shadow tallies): metrics
//     restart from zero after a restore; events emitted after the restore
//     point are still identical to the uninterrupted run's.
//   - Hooks (gates, transmit callbacks, a Runner's departure sink) and the
//     bufmgr policy object: callers reinstall them after restore (the
//     checkpoint layer records the policy spec string for exactly this
//     purpose).
//
// Cells appear in several structures at once (an arrival waiting for its
// write wave, a queued descriptor and an egress reassembly record may
// reference one *cell.Cell). Snapshot serializes each reference by content,
// so restore breaks the aliasing into distinct copies. This is behaviorally
// invisible: inside the switch a cell's content is read-only, and
// integrity comparisons are by value.

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

// ArrivalState is the serialized form of one input register row's
// occupancy. Cell is present only while the arrival waits for its write
// wave; the row's words are its RowState.
type ArrivalState struct {
	Cell    *CellState `json:",omitempty"`
	Head    int64
	Written bool
	Active  bool
}

// RowState is one input link's row of registers (inRow): the occupant's
// words and the previous occupant's, flips included, and whether the
// occupant carries a flip.
type RowState struct {
	Occ, Prev []cell.Word
	Flipped   bool `json:",omitempty"`
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

	// Mem is the shared buffer as the switch lays it out, address-major
	// (word addr·k+stage), and ECCMem its check bits, laid out alike.
	Mem    []cell.Word
	ECCMem []uint8 `json:",omitempty"`
	// Rows[i] is input link i's row of registers.
	Rows []RowState

	// Ctrl[slot] is the control word of each ring slot. Open marks the
	// slots whose wave runs off the wave commit; it is omitted when no slot
	// has one.
	Ctrl []Op
	Open []bool `json:",omitempty"`

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
	WriteStartAt []int64

	// InDelay[slot][input] is the §4.3 link-pipelining delay line content
	// (present only when Config.LinkPipeline > 0 and the line has been
	// touched).
	InDelay [][]*CellState `json:",omitempty"`

	Counters   Counts
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
	s.materializeLazy()
	st := &SwitchState{
		Config: s.cfg,
		Cycle:  s.cycle,

		Mem:    slices.Clone(s.mem),
		ECCMem: slices.Clone(s.eccMem),
		Rows:   make([]RowState, s.n),
		Ctrl:   slices.Clone(s.ctrl),

		Inflight: make([]ArrivalState, s.n),

		FreeAddrs: s.free.Snapshot(),
		FreeNodes: s.nfree.Snapshot(),
		Queues:    make([][]QueueNodeState, s.queues.Queues()),
		Refcnt:    append([]int(nil), s.refcnt...),
		OutOcc:    append([]int(nil), s.outOcc...),

		WrSkip:   append([]int64(nil), s.wrSkip...),
		InStalls: make([]int64, s.n),
		InDrops:  append([]int64(nil), s.inDrops...),
		OutDrops: append([]int64(nil), s.outDrops...),

		LinkFree: append([]int64(nil), s.linkFree...),
		ReadRR:   s.readRR,
		VCRR:     append([]int(nil), s.vcRR...),
		WriteRR:  s.writeRR,

		Egress: make([][]ReasmState, s.n),

		WriteStartAt: append([]int64(nil), s.writeStartAt...),

		Counters:   s.counts,
		InitDelay:  s.initDelay.State(),
		CutLatency: s.cutLatency.State(),
	}
	if slices.Contains(s.open, true) {
		st.Open = slices.Clone(s.open)
	}
	for i := range s.rows {
		r := &s.rows[i]
		st.Rows[i] = RowState{Occ: slices.Clone(r.regs[r.occ:][:s.k]), Prev: slices.Clone(r.regs[s.k-r.occ:][:s.k]), Flipped: r.flipped}
	}
	for i := range s.inflight {
		a := &s.inflight[i]
		st.InStalls[i] = s.inputStall(i)
		st.Inflight[i] = ArrivalState{Head: a.head, Written: a.written, Active: a.active}
		if a.active && !a.written {
			st.Inflight[i].Cell = cellState(a.c)
		}
	}
	for q := range st.Queues {
		list := []QueueNodeState{}
		s.queues.Do(q, func(node int) {
			list = append(list, QueueNodeState{Node: node, Desc: descState(&s.nodes[node])})
		})
		st.Queues[q] = list
	}
	// Zero or one record per output: the link's single egress slot, its
	// words copied out of a lazy record (materialize, behaviorally inert).
	for o, r := range s.rxHead {
		st.Egress[o] = []ReasmState{}
		if r != nil {
			r.materialize()
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
	lens := map[string]([2]int){
		"Mem":          {len(st.Mem), k * cfg.Cells},
		"Rows":         {len(st.Rows), n},
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
		"WriteStartAt": {len(st.WriteStartAt), cfg.Cells},
	}
	if cfg.ECC {
		lens["ECCMem"] = [2]int{len(st.ECCMem), k * cfg.Cells}
	} else if st.ECCMem != nil {
		return nil, fmt.Errorf("core: switch state carries ECC check bits, config has ECC off")
	}
	if st.Open != nil {
		lens["Open"] = [2]int{len(st.Open), k}
	}
	if err := checkLens("switch state", lens); err != nil {
		return nil, err
	}
	for i, r := range st.Rows {
		if len(r.Occ) != k || len(r.Prev) != k {
			return nil, fmt.Errorf("core: switch state Rows[%d] has %d and %d words, want %d", i, len(r.Occ), len(r.Prev), k)
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
	copy(s.mem, st.Mem)
	copy(s.eccMem, st.ECCMem)
	for i, r := range st.Rows {
		copy(s.rows[i].regs, r.Occ)
		copy(s.rows[i].regs[k:], r.Prev)
		if s.rows[i].flipped = r.Flipped; r.Flipped {
			s.flipN++
		}
	}
	for slot := range st.Ctrl {
		s.setCtrl(slot, &st.Ctrl[slot])
	}
	for slot, open := range st.Open {
		if open {
			s.open[slot] = true
			s.openN++
		}
	}

	for i := range st.Inflight {
		a := &st.Inflight[i]
		if a.Active && !a.Written {
			if why := cellUnusable(a.Cell, cfg); why != "" {
				return nil, fmt.Errorf("core: switch state arrival on input %d %s", i, why)
			}
			s.pendSet(i)
		}
		s.inflight[i] = arrival{c: cellFromState(a.Cell), head: a.Head, written: a.Written, active: a.Active}
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
	// The port masks are derived, never serialized: occMask here, idleMask
	// as the egress slots are re-booked below, pendMask with the arrivals
	// above. The gate levels are the caller's state: every output restarts
	// open.
	for o, occ := range s.outOcc {
		if occ > 0 {
			s.occMask.set(o)
		}
	}
	copy(s.wrSkip, st.WrSkip)
	// A state counts the open wait of an arrival still pending in its
	// input's stalls (Snapshot); the switch settles it later.
	for i, v := range st.InStalls {
		s.inStalls[i] = v - s.openWait(i)
	}
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
	// An open read or write-through adds a word per stage run to its
	// output's record, which must be the one it started.
	for stg := 1; stg < k; stg++ {
		slot, c0 := s.ctrlSlot(s.cycle, stg), s.cycle-int64(stg)
		if op := &s.ctrl[slot]; s.open[slot] && (op.Kind == OpRead || op.Kind == OpWriteThrough) {
			if r := s.rxHead[op.Out]; r == nil || r.start != c0+1 || len(r.words) != stg {
				return nil, fmt.Errorf("core: switch state ring slot %d runs a transmission on output %d off the commit, but the output holds no record of its %d words", slot, op.Out, stg)
			}
		}
	}

	if st.Stuck != nil {
		if len(st.Stuck) != k {
			return nil, fmt.Errorf("core: switch state Stuck has %d banks, want %d", len(st.Stuck), k)
		}
		s.stuck = append([]bool(nil), st.Stuck...)
	}
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

	s.counts = st.Counters
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
// input, output or address, a queued descriptor's
// address or VC, a round-robin pointer, a WRR table entry.
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
