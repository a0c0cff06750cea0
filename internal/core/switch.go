package core

import (
	"fmt"
	"time"

	"pipemem/internal/arb"
	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/fifo"
	"pipemem/internal/obs"
	"pipemem/internal/stats"
)

// OpKind is the operation a memory stage performs in a cycle.
type OpKind uint8

const (
	// OpNone: the stage is idle this cycle.
	OpNone OpKind = iota
	// OpWrite: the stage writes its link's input register into the RAM.
	OpWrite
	// OpRead: the stage reads the RAM into its output register.
	OpRead
	// OpWriteThrough: the stage writes the RAM and simultaneously taps
	// the data bus into its output register — the same-cycle cut-through
	// of §3.3 ("in the same or in any subsequent cycle, this word can
	// also be loaded … into the leftmost output buffer register").
	OpWriteThrough
)

// String implements fmt.Stringer (single letters, fig. 5 style).
func (k OpKind) String() string {
	switch k {
	case OpNone:
		return "-"
	case OpWrite:
		return "W"
	case OpRead:
		return "R"
	case OpWriteThrough:
		return "T"
	default:
		return "?"
	}
}

// Op is one control word of the pipelined control path (fig. 5): the
// operation stage M0 performs this cycle, which subsequent stages repeat
// in subsequent cycles.
type Op struct {
	Kind OpKind
	// In is the incoming link whose input register row supplies the data
	// (OpWrite, OpWriteThrough).
	In int
	// Out is the outgoing link the data is destined for (OpRead,
	// OpWriteThrough).
	Out int
	// Addr is the buffer address used by every stage of the wave.
	Addr int
}

// String implements fmt.Stringer.
func (o Op) String() string {
	switch o.Kind {
	case OpNone:
		return "-"
	case OpWrite:
		return fmt.Sprintf("W(in%d,a%d)", o.In, o.Addr)
	case OpRead:
		return fmt.Sprintf("R(out%d,a%d)", o.Out, o.Addr)
	case OpWriteThrough:
		return fmt.Sprintf("T(in%d,out%d,a%d)", o.In, o.Out, o.Addr)
	default:
		return "?"
	}
}

// Switch is the cycle-accurate pipelined memory shared buffer switch.
// Construct with New; advance with Tick; take departures through a
// DepartureSink (SetDepartureSink) or collect them with Drain.
type Switch struct {
	cfg Config
	// linkSide is the periphery (link.go): input-row occupancy, the single
	// egress slot per output, departure hand-off and the event counters.
	linkSide

	cycle int64

	// mem is the shared buffer in structure-of-arrays form: one flat word
	// slice laid out address-major (index addr*k+st), so the k words of a
	// wave occupy one contiguous run the wave commit can copy with a single
	// sweep. memIdx resolves the (stage, address) view the open waves and
	// the fault layer use.
	mem []cell.Word
	// memLazy defers the bank deposit of unicast write waves: the
	// address's single pending read serves its k words straight from the
	// still-resident cell, so the payload crosses memory once instead of
	// twice. Every consumer that reads the array directly (snapshot, fault
	// injection, an open wave) calls materializeLazy or materializeAddr
	// first.
	memLazy []*cell.Cell // [address]
	// ctrl is the pipelined control path stored as a ring indexed by wave
	// initiation cycle: slot c0%k holds the op initiated at cycle c0, and
	// stage st executes slot (c-st)%k at cycle c. This is the same
	// "stage s+1 repeats stage s's operation next cycle" schedule of §3.3
	// without physically shifting a control word per stage per cycle.
	// waves counts the live ops.
	ctrl  []Op // [initiation cycle % k]
	waves int

	free   *fifo.FreeList
	queues *fifo.MultiQueue // per (output, VC), of descriptor nodes
	// nodes is the descriptor-node pool and nfree its free list: one node
	// per queued copy, at most cells×ports. The pool starts at one node per
	// address — all unicast ever needs — and doubles when multicast copies
	// claim every node (newNode).
	nodes  []desc
	nfree  *fifo.FreeList
	refcnt []int // per address: queued copies not yet read
	outOcc []int // per output: queued cells across its VCs (O(1) QueuedFor)

	// policy is the optional shared-buffer admission policy (bufmgr);
	// polState is the pre-boxed State adapter handed to every Admit call
	// so consulting the policy allocates nothing.
	policy   bufmgr.Policy
	polState *bufView
	// inStalls[i] counts cycles input i held a cell still waiting for its
	// write wave (per-input backpressure visibility), settled when the
	// arrival leaves the pending set — inputStall adds the open wait of one
	// still in it; inDrops[i] and outDrops[o] count lost cells by arrival
	// input and by destination output across all loss modes.
	inStalls, inDrops, outDrops []int64

	linkFree []int64 // per output: first cycle a new read may be initiated
	vcRR     []int   // per output: round-robin pointer over its VC queues
	// vcWeights/vcTokens implement weighted round-robin service among an
	// output's VCs ([KaSC91], the authors' earlier WRR cell multiplexing
	// chip); nil weights mean plain round-robin.
	vcWeights [][]int
	vcTokens  [][]int

	// tracer is the fig. 5 tap (trace.go): nil — the default — costs one
	// pointer test per Tick, outside the tick.
	tracer func(TraceEvent)
	// obs is the observability layer (observe.go): nil — the default —
	// costs one pointer test per event and keeps the hot path 0 allocs/op.
	obs *observed
	// prof is the optional arbitration phase profile (profile.go): nil —
	// the default — costs one pointer test per arbitrate call.
	prof *PhaseProf

	// vcGate, when set, must return true for a transmission to start on
	// an (output, VC) pair — per-VC flow control; the per-output level is
	// the link side's openMask.
	vcGate func(out, vc int) bool
	// onTransmitCell, when set, is called once per transmission booked
	// with the departing cell and the wave initiation cycle: credit
	// consumption, and the multistage fabric's chained cut-through.
	onTransmitCell func(out int, c *cell.Cell, startCycle int64)
	// onDropCell, when set, receives every cell the switch loses
	// (overrun displacement, policy refusal, push-out eviction), so an
	// outer engine can retire per-cell bookkeeping instead of leaking
	// it. The switch never reads a cell it has handed to the hook: the
	// input row holds its own copy of the words (rows).
	onDropCell func(c *cell.Cell)

	// Fault-tolerance state (defense layers; see degrade.go). eccMem holds
	// the per-word SEC-DED check bits when Config.ECC is on, laid out like
	// mem (index memIdx), and ecc is the code for the configured word width.
	// eccDirty flags exactly the addresses holding a word that fails its
	// check bits, eccDirtyN counts them: the wave commit never decodes, so
	// a wave over one runs off it (initiate). stuck marks banks with an
	// injected stuck-at fault, stuckN counts them.
	eccMem    []uint8
	ecc       *eccCode
	eccDirty  []bool
	eccDirtyN int
	stuck     []bool
	stuckN    int
	// writeStartAt[addr] is the initiation cycle of the write wave that
	// last allocated addr; fault engines use it (AddrStable) to target
	// only fully deposited words.
	writeStartAt []int64

	// The wave commit (tick) applies a wave's memory traffic at initiation
	// and posts its departure to departAt, the cycle-indexed completion
	// ring. A wave a fault can still reach is open instead (degrade.go): its
	// stages access the banks at their own cycles. openN counts open slots.
	// rows[i] is input link i's row of registers (degrade.go), flipN the
	// number of rows whose occupant carries a flipped word.
	departAt []int // [cycle & depMask]: the output completing then, -1 for none
	open     []bool
	openN    int
	rows     []inRow
	flipN    int
	// ctrlMask is k-1 when k is a power of two — slotOf then replaces the
	// hardware divide the per-cycle ring indexing would otherwise pay —
	// and -1 otherwise. depMask is len(departAt)-1 (the completion ring is
	// always sized to a power of two ≥ k+1).
	ctrlMask int
	depMask  int

	// inDelay is the §4.3 link-pipelining delay line: slot c%R holds the
	// heads that entered the switch boundary R cycles ago and reach the
	// input registers this cycle. delayCount tracks cells in flight on
	// the pipelined wires for conservation accounting.
	inDelay      [][]*cell.Cell
	delayScratch []*cell.Cell // reused heads vector for the delayed wave
	delayCount   int
	// auditRef (per address) is the table AuditInvariants reuses so online
	// audits stay allocation-free.
	auditRef []int
	// initDelay accumulates §3.4's staggered-initiation delay.
	initDelay stats.Mean
}

// New builds a switch; the configuration is canonicalized and validated.
func New(cfg Config) (*Switch, error) {
	cfg = cfg.Canonical()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n, k := cfg.Ports, cfg.Stages
	s := &Switch{
		cfg:          cfg,
		mem:          make([]cell.Word, k*cfg.Cells),
		memLazy:      make([]*cell.Cell, cfg.Cells),
		ctrl:         make([]Op, k),
		open:         make([]bool, k),
		rows:         make([]inRow, n),
		free:         fifo.NewFreeList(cfg.Cells),
		queues:       fifo.NewMultiQueue(n*cfg.VCs, cfg.Cells),
		nodes:        make([]desc, cfg.Cells),
		nfree:        fifo.NewGrowingFreeList(cfg.Cells*n, cfg.Cells),
		refcnt:       make([]int, cfg.Cells),
		outOcc:       make([]int, n),
		inStalls:     make([]int64, n),
		inDrops:      make([]int64, n),
		outDrops:     make([]int64, n),
		linkFree:     make([]int64, n),
		vcRR:         make([]int, n),
		writeStartAt: make([]int64, cfg.Cells),
	}
	s.linkSide.init(n, k, cfg.LinkPipeline)
	regs := make([]cell.Word, 2*n*k)
	for i := range s.rows {
		s.rows[i].regs = regs[2*i*k : 2*(i+1)*k]
	}
	depLen := 1
	for depLen < k+1 {
		depLen <<= 1
	}
	s.departAt = make([]int, depLen)
	for i := range s.departAt {
		s.departAt[i] = -1
	}
	s.depMask = depLen - 1
	s.ctrlMask = -1
	if k&(k-1) == 0 {
		s.ctrlMask = k - 1
	}
	if cfg.ECC {
		s.eccMem = make([]uint8, k*cfg.Cells)
		s.ecc = newECC(cfg.WordBits)
		s.eccDirty = make([]bool, cfg.Cells)
	}
	s.polState = &bufView{s}
	return s, nil
}

// Config returns the effective configuration.
func (s *Switch) Config() Config { return s.cfg }

// ctrlSlot returns the ring index of the control word stage st executes
// at cycle c (the wave initiated at cycle c-st).
func (s *Switch) ctrlSlot(c int64, st int) int {
	i := int((c - int64(st)) % int64(s.k))
	if i < 0 {
		i += s.k
	}
	return i
}

// slotOf returns the ctrl-ring slot cycle c initiates into — c % k, with
// the divide strength-reduced to a mask for power-of-two stage counts
// (the default k = 2n shape whenever n is a power of two).
func (s *Switch) slotOf(c int64) int {
	if s.ctrlMask >= 0 {
		return int(c) & s.ctrlMask
	}
	return int(c % int64(s.k))
}

// depSlot returns cycle c's slot of the departure-completion ring.
func (s *Switch) depSlot(c int64) int { return int(c) & s.depMask }

// occInc/occDec maintain output o's queued-cell census (count + bitset),
// as the link side's pendSet/pendClear do for the pending writes.
func (s *Switch) occInc(o int) {
	s.outOcc[o]++
	s.occMask.set(o)
}

func (s *Switch) occDec(o int) {
	if s.outOcc[o]--; s.outOcc[o] == 0 {
		s.occMask.clear(o)
	}
}

// memIdx maps the (stage, address) view onto the flat address-major
// buffer array: a wave's k words are contiguous at addr*k.
func (s *Switch) memIdx(st, addr int) int { return addr*s.k + st }

// setCtrl writes one control-ring slot, keeping the live-op count. The op
// is taken by pointer (never retained) so the per-cycle call moves no
// 32-byte struct.
func (s *Switch) setCtrl(slot int, op *Op) {
	if s.ctrl[slot].Kind != OpNone {
		s.waves--
	}
	if op.Kind != OpNone {
		s.waves++
	}
	s.ctrl[slot] = *op
}

// materializeLazy deposits every deferred unicast payload into the bank
// array (masked, exactly as the eager write sweep would have) and clears
// the lazy table, restoring the invariant that s.mem holds all committed
// write traffic. Idempotent; called on every seam that reads the array
// directly.
func (s *Switch) materializeLazy() {
	for a, lc := range s.memLazy {
		if lc == nil {
			continue
		}
		s.materializeAddr(a)
	}
}

// materializeAddr flushes one address's deferred payload, if any.
func (s *Switch) materializeAddr(a int) {
	lc := s.memLazy[a]
	if lc == nil {
		return
	}
	s.deposit(a, lc.Words)
	s.memLazy[a] = nil
}

// deposit is a whole write wave's bank traffic in one sweep: the k words of
// src, masked to the word width, land at address a together with their
// check bits when ECC is on — so whatever reads the address next finds
// consistent (word, check) pairs.
func (s *Switch) deposit(a int, src []cell.Word) {
	dst, m := s.mem[a*s.k:a*s.k+s.k], s.cfg.wordMask()
	for j := range dst {
		dst[j] = src[j] & m
	}
	if s.eccMem != nil {
		chk := s.eccMem[a*s.k : a*s.k+s.k]
		for j, w := range dst {
			chk[j] = s.ecc.encode(w)
		}
	}
}

// qidx maps an (output, vc) pair to its descriptor-queue index.
func (s *Switch) qidx(out, vc int) int { return out*s.cfg.VCs + vc }

// QueuedFor returns the number of cells queued for an output across all
// of its virtual channels. O(1): the per-output occupancy is maintained
// at every queue mutation, since admission policies consult it on each
// arrival.
func (s *Switch) QueuedFor(out int) int { return s.outOcc[out] }

// Cycle returns the current cycle number (number of Ticks so far).
func (s *Switch) Cycle() int64 { return s.cycle }

// Buffered returns the number of cells currently held in the buffer
// (written or being written, not yet claimed by a read wave).
func (s *Switch) Buffered() int { return s.queues.Total() }

// FreeCells returns the number of unallocated buffer addresses.
func (s *Switch) FreeCells() int { return s.free.Free() }

// InitDelay returns the accumulated staggered-initiation delay statistics
// (§3.4): cycles a write wave waited beyond head+1 for the stage-0 slot.
func (s *Switch) InitDelay() *stats.Mean { return &s.initDelay }

// SetTracer installs a per-cycle trace callback (nil to disable); see
// TraceEvent. The tracer is a tap, not a mode: an event is a function of
// the control ring and the input rows' occupancy, so the switch runs as it
// would untraced, and a tracer installed at any cycle reports from that
// cycle on exactly what one installed at cycle 0 would have (emitTrace).
func (s *Switch) SetTracer(f func(TraceEvent)) { s.tracer = f }

// SetOutputOpen drives output out's gate level — the "credit available"
// wire of link-level flow control ([KVES95]). A closed output is skipped
// by read arbitration and by the cut-through upgrade, and its cells wait
// in the shared buffer; every output starts open. The level is pushed, not
// polled: the owner of the credit counter calls this on the 1→0 and 0→1
// transitions it already performs (from inside a transmit hook is fine).
// It is the caller's state, not the switch's — Snapshot does not carry it,
// and a switch rebuilt by NewFromSnapshot has every output open until the
// caller pushes its levels again.
func (s *Switch) SetOutputOpen(out int, open bool) {
	if uint(out) >= uint(s.n) {
		panic(fmt.Sprintf("core: gate level for output %d of an %d-port switch", out, s.n))
	}
	if open {
		s.openMask.set(out)
	} else {
		s.openMask.clear(out)
	}
}

// OutputOpen reports output out's gate level (see SetOutputOpen).
func (s *Switch) OutputOpen(out int) bool { return s.openMask.has(out) }

// SetVCGate installs a per-(output, VC) admission predicate — the
// [KVES95] VC-level flow control. A VC whose gate is closed keeps its
// cells queued without blocking the output's other VCs.
func (s *Switch) SetVCGate(gate func(out, vc int) bool) { s.vcGate = gate }

// SetVCWeights installs weighted round-robin service among output out's
// virtual channels — the cell-multiplexing discipline of the authors'
// earlier ATM switch chip [KaSC91]. weights must have one positive entry
// per VC; under backlog, VC i receives weights[i] transmissions per WRR
// frame. Passing nil restores plain round-robin.
func (s *Switch) SetVCWeights(out int, weights []int) error {
	if out < 0 || out >= s.n {
		return fmt.Errorf("%w: VC weights for output %d of an %d-port switch", ErrBadConfig, out, s.n)
	}
	if weights == nil {
		if s.vcWeights != nil {
			s.vcWeights[out] = nil
			s.vcTokens[out] = nil
		}
		return nil
	}
	if len(weights) != s.cfg.VCs {
		return fmt.Errorf("%w: %d weights for %d VCs", ErrBadConfig, len(weights), s.cfg.VCs)
	}
	for vc, w := range weights {
		if w < 1 {
			return fmt.Errorf("%w: weight %d for VC %d, need ≥ 1", ErrBadConfig, w, vc)
		}
	}
	if s.vcWeights == nil {
		s.vcWeights = make([][]int, s.n)
		s.vcTokens = make([][]int, s.n)
	}
	s.vcWeights[out] = append([]int(nil), weights...)
	s.vcTokens[out] = append([]int(nil), weights...)
	return nil
}

// pickVC selects which of output o's VCs to serve, honouring WRR weights
// when configured and plain round-robin otherwise. eligible reports
// whether a VC has a serviceable head (backlog, open gate, SF-ready).
// It returns the chosen VC or -1.
func (s *Switch) pickVC(o int, eligible func(vc int) bool) int {
	if s.vcWeights == nil || s.vcWeights[o] == nil {
		for jv := 0; jv < s.cfg.VCs; jv++ {
			vc := (s.vcRR[o] + jv) % s.cfg.VCs
			if eligible(vc) {
				s.vcRR[o] = (vc + 1) % s.cfg.VCs
				return vc
			}
		}
		return -1
	}
	// WRR: serve an eligible VC that still has tokens this frame; when
	// every eligible VC has exhausted its tokens, start a new frame.
	tokens := s.vcTokens[o]
	for pass := 0; pass < 2; pass++ {
		for jv := 0; jv < s.cfg.VCs; jv++ {
			vc := (s.vcRR[o] + jv) % s.cfg.VCs
			if tokens[vc] > 0 && eligible(vc) {
				tokens[vc]--
				if tokens[vc] == 0 {
					s.vcRR[o] = (vc + 1) % s.cfg.VCs
				}
				return vc
			}
		}
		if pass == 0 {
			// Refill the frame only if some eligible VC exists at all.
			any := false
			for vc := 0; vc < s.cfg.VCs; vc++ {
				if eligible(vc) {
					any = true
					break
				}
			}
			if !any {
				return -1
			}
			copy(tokens, s.vcWeights[o])
		}
	}
	return -1
}

// SetTransmitCellHook installs a callback invoked when a transmission is
// booked, carrying the departing cell and the wave-initiation cycle (the
// head word is on the outgoing link at startCycle+1). The multistage
// fabric uses it to start the downstream switch's arrival wave while the
// tail is still crossing this switch — cut-through chained across hops.
func (s *Switch) SetTransmitCellHook(f func(out int, c *cell.Cell, startCycle int64)) {
	s.onTransmitCell = f
}

// SetDropCellHook installs a callback invoked once per cell the switch
// loses, whatever the loss mode (overrun displacement, policy refusal,
// push-out eviction). The switch holds no reference it will read to a cell
// it hands to the hook — its input row latched a copy of the words — so the
// caller may recycle the cell at once. The multistage fabric uses the hook to
// retire per-cell flight state and free the dead cell's credit.
func (s *Switch) SetDropCellHook(f func(c *cell.Cell)) {
	s.onDropCell = f
}

// SetLeanDepartures makes a departure a count: Counts.Delivered moves and the
// egress record is recycled, but no Departure is built, so Drain hands out
// nothing, and neither the corruption compare nor CutLatency() sees it.
// The multistage fabric enables it on interior nodes, whose transmit hook
// passes the cell itself on to the next stage. The contract that makes
// that safe: once the Tick that ran its transmit hook returns, a lean
// switch's departures never dereference the cell again. Its written input
// row may still point at it, and so may its egress record, which holds the
// cell's words lazily, uncopied; a lean departure neither materializes the
// record nor calls a sink. Snapshot does read the cell there, and so does a
// fault seam that reopens the committed transmission (openChain): do not
// snapshot a switch whose hook hands cells away, nor inject faults into it.
func (s *Switch) SetLeanDepartures(on bool) { s.leanDepart = on }

// Tick advances the switch one clock cycle. heads[i], when non-nil, is a
// cell whose head word arrives at input i in this cycle; it must be
// exactly K words long and the input link must not be mid-cell (the link
// carries one word per cycle, so heads may be at most K cycles apart).
// heads may be nil when no cell arrives anywhere.
func (s *Switch) Tick(heads []*cell.Cell) {
	if s.tracer != nil {
		s.tickTraced(heads)
		return
	}
	s.tick(heads)
}

// delayStep advances the §4.3 link-pipelining delay line: heads spend
// LinkPipeline cycles crossing the pipelined input wires before reaching
// the input registers. The delay line is transparent to all switch logic
// behind it. Slot storage and the delayed-heads vector are preallocated
// and swapped in place.
func (s *Switch) delayStep(c int64, heads []*cell.Cell) []*cell.Cell {
	r := s.cfg.LinkPipeline
	if r == 0 {
		return heads
	}
	if s.inDelay == nil {
		s.inDelay = make([][]*cell.Cell, r)
		for i := range s.inDelay {
			s.inDelay[i] = make([]*cell.Cell, s.n)
		}
		s.delayScratch = make([]*cell.Cell, s.n)
	}
	slot := s.inDelay[c%int64(r)]
	for i := 0; i < s.n; i++ {
		var h *cell.Cell
		if heads != nil {
			h = heads[i]
		}
		slot[i], h = h, slot[i] // store entering, extract R-cycle-old
		if slot[i] != nil {
			s.delayCount++
		}
		if h != nil {
			s.delayCount--
		}
		s.delayScratch[i] = h
	}
	return s.delayScratch
}

// tick is one cycle of the switch: one arbitration, the chosen wave's whole
// memory traffic committed at initiation, and ring-scheduled completion.
// The commit is exact: a cell's words are immutable once injected and stage
// st of the wave initiated at c0 runs at exactly c0+st, so two waves over
// one address meet every stage in initiation order — a wave's traffic
// commutes with every other wave's. Where a fault can reach a wave that
// argument stops holding, and the wave is open (initiate, runStages).
func (s *Switch) tick(heads []*cell.Cell) {
	// Dead-cycle exit (TickN skips runs of these cycles in O(1), Runner.Step
	// does not even call).
	if heads == nil && s.idle() {
		s.cycle++
		return
	}
	c := s.cycle

	if s.cfg.LinkPipeline > 0 && (heads != nil || s.delayCount > 0) {
		heads = s.delayStep(c, heads)
	}

	s.completeDue(c)

	// No-initiation shortcut: with nothing awaiting a write wave and
	// nothing buffered, both pickers would scan and fail — exactly what
	// arbitrate would return Op{} for, with no side effect. Skipping the
	// call is therefore bit-identical.
	var op Op
	base := s.slotOf(c)
	if s.pendingWrites != 0 || s.queues.Total() != 0 {
		s.arbitrate(c, &op)
	}
	if s.openN != 0 {
		s.retire(base)
	}
	if op.Kind != OpNone || s.ctrl[base].Kind != OpNone {
		s.setCtrl(base, &op)
	}
	if op.Kind != OpNone {
		if s.seamsOpen() {
			s.initiate(base, &op, c)
		} else {
			s.commitWave(&op, c)
		}
		if s.obs != nil {
			s.obs.wave(c, &op, s.queues.Total())
		}
	}

	if s.pendingWrites != 0 && s.obs != nil {
		s.obs.stall(c, s.pendingWrites)
	}
	if s.openN != 0 {
		s.runStages(c)
	}

	// Ingress: an arriving head's words go into its row at once; nothing is
	// latched per cycle.
	for i, nc := range heads {
		if nc == nil {
			continue
		}
		since := s.inflight[i].head
		lost := s.admit(i, nc, c)
		s.shiftRow(i, nc.Words)
		if lost != nil {
			s.overrun(i, lost, c-since)
		}
	}

	s.cycle++
}

// overrun is the switch's share of the accounting for a cell the link side
// found displaced on input i (linkSide.admit) after waiting its whole
// residency, waited cycles past its head's: the settled stall, the per-port
// loss tallies and the drop hook.
func (s *Switch) overrun(i int, lost *cell.Cell, waited int64) {
	s.inStalls[i] += waited
	s.inDrops[i]++
	s.outDrops[lost.Dst]++
	if s.onDropCell != nil {
		s.onDropCell(lost)
	}
}

// completeDue books the departure posted for cycle c, if any. At most one
// wave initiates per cycle, so at most one completes per cycle — the one
// posted k cycles ago. (Kept within the inliner's budget: it runs every
// cycle.)
func (s *Switch) completeDue(c int64) {
	if o := s.departAt[s.depSlot(c)]; o >= 0 {
		s.finishDeparture(o, c)
	}
}

// commitWave applies the entire memory traffic of the wave just initiated
// at cycle c in one contiguous sweep and schedules its departure, in place
// of k per-stage accesses. The flat address-major layout makes each case a
// single run over mem[addr*k : addr*k+k].
func (s *Switch) commitWave(op *Op, c int64) {
	m := s.cfg.wordMask() // once for the whole sweep
	switch op.Kind {
	case OpWrite:
		if s.refcnt[op.Addr] == 1 {
			// Unicast: defer the deposit. The cell outlives its only
			// read wave's commit (it is recycled no earlier than the
			// departure it becomes; a push-out deposits it before
			// handing it back), so the read serves from it
			// directly — touching neither the bank array nor its check
			// bits. Multicast keeps the eager copy — an early departure
			// may hand the cell back while copies still queue.
			s.memLazy[op.Addr] = s.inflight[op.In].c
		} else {
			s.deposit(op.Addr, s.inflight[op.In].c.Words)
		}
	case OpRead:
		// A deferred deposit passes on to the egress record, still
		// uncopied: the record departs the very cell it holds.
		r := s.rxHead[op.Out]
		if lc := s.memLazy[op.Addr]; lc != nil {
			r.src, r.m = lc, m
			s.memLazy[op.Addr] = nil
		} else {
			r.words = append(r.words, s.mem[op.Addr*s.k:op.Addr*s.k+s.k]...)
		}
		r.start = c + 1
		s.scheduleDepart(op.Out, c)
	case OpWriteThrough:
		// The departing words come straight off the data bus (§3.3), and
		// pickWrite already released the buffer address — nothing could
		// ever read the RAM deposit, so it is skipped entirely, and the
		// record holds the cell lazily.
		r := s.rxHead[op.Out]
		r.src, r.m = s.inflight[op.In].c, m
		r.start = c + 1
		s.scheduleDepart(op.Out, c)
	}
}

// scheduleDepart posts a transmission for completion at cycle c+k — the
// cycle its k-th word is on the link. The ring has ≥ k+1 slots and
// initiations are at most one per cycle, so a slot is always consumed (at
// c0+k) before the next wave that maps to it (initiated at least k+1
// cycles later) posts.
func (s *Switch) scheduleDepart(out int, c int64) {
	s.departAt[s.depSlot(c+int64(s.k))] = out
}

// openWait is the part of input i's stall count not yet settled at the
// cycle boundary: an arrival still waiting for its write wave has waited
// every cycle run since its head's. A wait settles into inStalls when the
// arrival leaves the pending set — at its write wave's initiation or a
// policy drop (c−head−1 cycles: the initiation cycle is not a wait), or
// when the next head displaces it (c−head: its whole residency).
func (s *Switch) openWait(i int) int64 {
	if a := &s.inflight[i]; a.active && !a.written {
		return s.cycle - 1 - a.head
	}
	return 0
}

// inputStall is input i's stall count at the cycle boundary.
func (s *Switch) inputStall(i int) int64 { return s.inStalls[i] + s.openWait(i) }

// arbitrate picks this cycle's stage-0 operation. The chosen operation is
// written through op — which must be zeroed by the caller and is left
// untouched on a no-initiation cycle — so the 32-byte Op never rides a
// return-value copy through the picker call chain.
func (s *Switch) arbitrate(c int64, op *Op) bool {
	if s.prof == nil {
		return s.arbitrateInner(c, op)
	}
	t0 := time.Now()
	ok := s.arbitrateInner(c, op)
	s.prof.ArbNS += time.Since(t0).Nanoseconds()
	s.prof.ArbCalls++
	return ok
}

func (s *Switch) arbitrateInner(c int64, op *Op) bool {
	// Reads first (outgoing links must not idle), then the most urgent
	// pending write, upgraded to a write-through when cut-through applies;
	// NoReadPriority flips the order.
	if !s.cfg.NoReadPriority {
		return s.pickRead(c, op) || s.pickWrite(c, op)
	}
	return s.pickWrite(c, op) || s.pickRead(c, op)
}

// pickRead selects an idle, open outgoing link with an eligible
// head-of-queue cell, round-robin from readRR: arb.FirstFrom over the
// link side's ready words (anyReady), which grants what the paper's index
// walk does. A ready output can still decline (store-and-forward wait,
// closed VC gates); it leaves the ready words and the rotation moves on
// (nextReady).
func (s *Switch) pickRead(c int64, op *Op) bool {
	scanned := 0
	if s.anyReady() {
		for o := arb.FirstFrom(s.ready, s.readRR); o >= 0; o = s.nextReady(o) {
			scanned++
			if s.tryRead(o, c, op) {
				s.noteRead(scanned, true)
				return true
			}
		}
	}
	s.noteRead(scanned, false)
	return false
}

// tryRead attempts to initiate a read wave on output o — whose link the
// caller found idle and open — at cycle c, returning false when it has no
// serviceable head-of-queue cell.
func (s *Switch) tryRead(o int, c int64, op *Op) bool {
	q := o // qidx(o, 0)
	if s.cfg.VCs == 1 && s.vcGate == nil && (s.vcWeights == nil || s.vcWeights[o] == nil) {
		// Single-VC fast path: with one virtual channel, no VC gate and
		// no WRR weights, the only candidate is the output's front
		// descriptor — skip the pickVC machinery.
		node, ok := s.queues.Front(q)
		if !ok || (!s.cfg.CutThrough && c < s.nodes[node].writeStart+int64(s.k)) {
			return false
		}
	} else {
		// Serve the output's virtual channels round-robin (or WRR when
		// weights are configured, [KaSC91]): a VC with a closed gate or
		// an ineligible head does not block the link's other VCs.
		eligible := func(vc int) bool {
			if s.vcGate != nil && !s.vcGate(o, vc) {
				return false
			}
			node, ok := s.queues.Front(s.qidx(o, vc))
			// Store-and-forward: wait until the write wave has fully
			// deposited the cell.
			return ok && (s.cfg.CutThrough || c >= s.nodes[node].writeStart+int64(s.k))
		}
		vc := s.pickVC(o, eligible)
		if vc < 0 {
			return false
		}
		q = s.qidx(o, vc)
	}
	node, _ := s.queues.Pop(q)
	s.occDec(o)
	d := &s.nodes[node]
	s.readRR = s.after(o)
	s.startTransmit(o, d, c)
	addr := d.addr
	s.nfree.Put(node)
	// The address is reusable once its last queued copy has
	// claimed its read wave: any later write wave trails this
	// read wave stage by stage.
	s.refcnt[addr]--
	if s.refcnt[addr] == 0 {
		s.free.Put(addr)
	}
	op.Kind, op.Out, op.Addr = OpRead, o, addr
	return true
}

// pickWrite selects the pending arrival with the earliest head cycle
// (earliest deadline first), tie-broken round-robin (the link side's
// earliestPending, which DualSwitch shares), and submits it to
// the buffer-management policy (bufmgr) when one is installed. A Drop
// verdict consumes the arrival and the scan moves to the next-most-
// urgent one in the same cycle; a PushOut verdict evicts the victim's
// head first; an Accept with no free address leaves the arrival pending
// (backpressure) and — with a policy installed — also tries the
// remaining arrivals, since one of them may be admittable by push-out.
func (s *Switch) pickWrite(c int64, op *Op) bool {
	if s.pendingWrites == 0 {
		s.noteWrite(0, false)
		return false
	}
	scanned := 0
retry:
	best, visited := s.earliestPending(c)
	scanned += visited
	if best == -1 {
		s.noteWrite(scanned, false)
		return false
	}
	a := &s.inflight[best]
	if s.policy != nil {
		switch v := s.policy.Admit(s.polState, a.c.Dst, a.c.VC); v.Action {
		case bufmgr.Drop:
			s.dropPolicy(best, a)
			goto retry // the freed slot may admit the next arrival now
		case bufmgr.PushOut:
			s.pushOut(v.VictimOut, v.VictimVC)
		}
	}
	addr, ok := s.free.Get()
	if !ok {
		// Buffer exhausted: the cell stays pending and retries; if it is
		// still unwritten when the next head arrives it is dropped
		// (overrun). With a policy installed, a less urgent arrival may
		// still get in this cycle (its verdict could push a victim out),
		// so mark this one tried and rescan.
		if s.policy != nil {
			s.wrSkip[best] = c + 1
			goto retry
		}
		s.noteWrite(scanned, false)
		return false
	}
	a.written = true
	s.pendClear(best)
	s.writeStartAt[addr] = c
	s.counts.Accepted++
	waited := c - a.head - 1
	s.inStalls[best] += waited
	s.initDelay.Add(float64(waited))
	if s.obs != nil {
		s.obs.initDelay.Observe(waited)
	}
	s.writeRR = s.after(best)
	vc := a.c.VC
	if vc < 0 || vc >= s.cfg.VCs {
		panic(fmt.Sprintf("core: cell VC %d out of configured %d channels", vc, s.cfg.VCs))
	}
	dst := a.c.Dst

	// Automatic cut-through, same-cycle variant (unicast only): if the
	// destination link is idle and no cell is queued ahead on any of its
	// VCs, the write wave doubles as the read wave (§3.3).
	if s.cfg.CutThrough && len(a.c.Copies) == 0 &&
		s.linkFree[dst] <= c && s.QueuedFor(dst) == 0 && s.openMask.has(dst) &&
		(s.vcGate == nil || s.vcGate(dst, vc)) {
		d := desc{c: a.c, head: a.head, writeStart: c, vc: vc, addr: addr}
		s.startTransmit(dst, &d, c)
		s.free.Put(addr)
		op.Kind, op.In, op.Out, op.Addr = OpWriteThrough, best, dst, addr
		s.noteWrite(scanned, true)
		return true
	}

	// Enqueue one descriptor per destination; the payload is stored once
	// (multicast economy of the shared buffer). Unicast cells — the hot
	// case — fill the descriptor in place on the claimed queue node, with
	// no stack staging and no closure.
	if len(a.c.Copies) == 0 {
		node, ok := s.nfree.Get()
		if !ok {
			node = s.newNode()
		}
		nd := &s.nodes[node]
		nd.c, nd.head, nd.writeStart, nd.vc, nd.addr = a.c, a.head, c, vc, addr
		s.refcnt[addr] = 1
		s.queues.Push(s.qidx(dst, vc), node)
		s.occInc(dst)
		op.Kind, op.In, op.Addr = OpWrite, best, addr
		s.noteWrite(scanned, true)
		return true
	}
	d := desc{c: a.c, head: a.head, writeStart: c, vc: vc, addr: addr}
	enqueue := func(o int) {
		if o < 0 || o >= s.n {
			panic(fmt.Sprintf("core: multicast copy to output %d out of range", o))
		}
		node, ok := s.nfree.Get()
		if !ok {
			node = s.newNode()
		}
		s.nodes[node] = d
		s.queues.Push(s.qidx(o, vc), node)
		s.occInc(o)
	}
	s.refcnt[addr] = 1 + len(a.c.Copies)
	s.counts.MulticastCopies += int64(len(a.c.Copies))
	enqueue(dst)
	for _, o := range a.c.Copies {
		enqueue(o)
	}
	op.Kind, op.In, op.Addr = OpWrite, best, addr
	s.noteWrite(scanned, true)
	return true
}

// newNode claims a descriptor node when every node of the pool is queued,
// which only multicast copies reach: the pool, its free list and the queue
// links double together, up to cells×ports.
func (s *Switch) newNode() int {
	if !s.nfree.Grow() {
		panic("core: descriptor-node pool exhausted (impossible: sized cells×ports)")
	}
	s.fitNodes()
	node, _ := s.nfree.Get()
	return node
}

// fitNodes sizes the descriptor pool and the queue links to the node free
// list's span.
func (s *Switch) fitNodes() {
	nodes := make([]desc, s.nfree.Span())
	copy(nodes, s.nodes)
	s.nodes = nodes
	s.queues.Grow(len(nodes))
}

// startTransmit books the outgoing link for the K-cycle transmission that
// follows a read (or write-through) wave initiated at cycle c, and claims
// the link's egress slot for the departing cell's reassembly.
func (s *Switch) startTransmit(o int, d *desc, c int64) {
	s.linkFree[o] = c + int64(s.k)
	s.book(o, d)
	if s.onTransmitCell != nil {
		s.onTransmitCell(o, d.c, c)
	}
}

// linkIdle is idleMask's definition at the boundary before cycle c: output
// o carries no transmission. A link booked at c₀ has linkFree = c₀+k and is
// released by the tick of that very cycle (completion runs before
// arbitration), so it is idle once linkFree < c — or while it was never
// booked at all (linkFree 0; a booking always lands at k or later).
func (s *Switch) linkIdle(o int, c int64) bool {
	f := s.linkFree[o]
	return f == 0 || f < c
}

// finishDeparture hands off the departure whose last word was observed on
// outgoing link o at cycle c and reports it to the observer. It also
// retires cycle c's completion-ring slot: a cycle completes at most one
// departure, so either this is the posted one or the slot was empty.
func (s *Switch) finishDeparture(o int, c int64) {
	s.departAt[s.depSlot(c)] = -1
	lat := s.depart(o, c)
	if ob := s.obs; ob != nil {
		ob.cutLat.Observe(lat)
		if ob.Tracer != nil {
			ob.Tracer.Emit(obs.Event{Kind: obs.EvWaveEnd, Cycle: c, In: -1, Out: int32(o), Addr: -1, V: lat})
		}
	}
}
