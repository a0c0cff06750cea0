package core

import (
	"fmt"
	"math/bits"
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
	// Remap marks a wave initiated while a stage bypass is active: every
	// stage of the wave resolves mapped-out banks through the redirect
	// table (degrade.go). The flag is frozen at initiation so a wave that
	// was in flight when a bypass tripped keeps its original bank schedule
	// to completion.
	Remap bool
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

// outWord is one register of the shared output register row.
type outWord struct {
	word     cell.Word
	out      int
	loadedAt int64
	valid    bool
}

// Switch is the cycle-accurate pipelined memory shared buffer switch.
// Construct with New; advance with Tick; collect departures with Drain.
type Switch struct {
	cfg Config
	// linkSide is the periphery (link.go): input-row occupancy, the single
	// egress slot per output, departure hand-off and the event counters.
	linkSide

	cycle int64

	// mem is the shared buffer in structure-of-arrays form: one flat word
	// slice laid out address-major (index addr*k+st), so the k words of a
	// wave occupy one contiguous run the batched fast path can copy with a
	// single sweep. memIdx resolves the (stage, address) view the per-stage
	// exact path and the fault layer use.
	mem []cell.Word
	// memLazy defers the bank deposit of unicast write waves on the
	// batched fast path: the address's single pending read serves its k
	// words straight from the still-resident cell, so the payload crosses
	// memory once instead of twice. Every consumer that reads the array
	// directly (snapshot, fault injection, exact-mode hand-over) calls
	// materializeLazy first. lazyCount tracks live entries so those cold
	// seams skip the scan when nothing is deferred.
	memLazy   []*cell.Cell // [address]
	lazyCount int
	inReg     [][]cell.Word // [input][stage]
	outReg    []outWord     // [stage]
	// ctrl is the pipelined control path stored as a ring indexed by wave
	// initiation cycle: slot c0%k holds the op initiated at cycle c0, and
	// stage st executes slot (c-st)%k at cycle c. This is the same
	// "stage s+1 repeats stage s's operation next cycle" schedule of §3.3
	// without physically shifting a control word per stage per cycle.
	// ctrlAt resolves the stage view.
	ctrl []Op // [initiation cycle % k]

	free   *fifo.FreeList
	queues *fifo.MultiQueue // per (output, VC), of descriptor nodes
	nodes  []desc           // descriptor-node pool
	nfree  *fifo.FreeList   // free descriptor nodes
	refcnt []int            // per address: queued copies not yet read
	outOcc []int            // per output: queued cells across its VCs (O(1) QueuedFor)

	// policy is the optional shared-buffer admission policy (bufmgr);
	// polState is the pre-boxed State adapter handed to every Admit call
	// so consulting the policy allocates nothing. wrSkip[i] = cycle+1
	// marks input i's arrival as not admittable this cycle (Accept
	// verdict with no free address), so pickWrite's retry loop moves on
	// to the next-most-urgent arrival instead of rescanning it.
	policy   bufmgr.Policy
	polState *bufView
	wrSkip   []int64
	// inStalls[i] counts cycles input i held a cell still waiting for its
	// write wave (per-input backpressure visibility); inDrops[i] and
	// outDrops[o] count lost cells by arrival input and by destination
	// output across all loss modes.
	inStalls, inDrops, outDrops []int64

	linkFree []int64 // per output: first cycle a new read may be initiated
	readRR   int     // round-robin pointer over outputs
	vcRR     []int   // per output: round-robin pointer over its VC queues
	// vcWeights/vcTokens implement weighted round-robin service among an
	// output's VCs ([KaSC91], the authors' earlier WRR cell multiplexing
	// chip); nil weights mean plain round-robin.
	vcWeights [][]int
	vcTokens  [][]int
	writeRR   int // tie-break pointer over inputs (EDF first)

	loaded []int // stages whose outReg was loaded this cycle
	// tracer is the fig. 5 tap (trace.go): nil — the default — costs one
	// pointer test per Tick, outside both engines.
	tracer func(TraceEvent)
	// obs is the observability layer (observe.go): nil — the default —
	// costs one pointer test per Tick and keeps the hot path 0 allocs/op.
	// obsPeak caches the published high-water mark so the per-cycle check
	// is a plain compare, not an atomic; obsLocal and the histogram
	// shadows buffer the hot counters between decimated flushes.
	obs          *Observer
	obsPeak      int64
	obsLocal     obsTally
	obsCutLat    *obs.HistShadow
	obsInitDelay *obs.HistShadow
	// prof is the optional arbitration phase profile (profile.go): nil —
	// the default — costs one pointer test per arbitrate call.
	prof *PhaseProf

	// cAccepted…cDropPushout are hot counter slots (stats.Counter.Hot) on
	// the link side's counter set.
	cAccepted, cDropPolicy, cDropPushout *int64

	// vcGate, when set, must return true for a transmission to start on
	// an (output, VC) pair — per-VC flow control; the per-output level is
	// outOpen/openMask below.
	vcGate func(out, vc int) bool
	// onTransmitCell, when set, is called once per transmission booked
	// with the departing cell and the wave initiation cycle: credit
	// consumption, and the multistage fabric's chained cut-through.
	onTransmitCell func(out int, c *cell.Cell, startCycle int64)
	// onDropCell, when set, receives every cell the switch loses
	// (overrun displacement, policy refusal, push-out eviction), so an
	// outer engine can retire per-cell bookkeeping instead of leaking
	// it. reusable reports that the switch holds no remaining reference
	// of any kind — true only for overrun victims, whose arrival
	// register is overwritten in the same cycle; a policy or push-out
	// victim may still be streaming words into the (now inert) input
	// register for the rest of its cell time.
	onDropCell func(c *cell.Cell, reusable bool)

	// Fault-tolerance state (defense layers; see degrade.go). eccMem holds
	// the per-word SEC-DED check bits when Config.ECC is on, laid out like
	// mem (index memIdx), and ecc is the code for the configured word width.
	// eccDirty flags the addresses holding an injected upset that no wave
	// has scrubbed or overwritten yet, eccDirtyN counts them: the batched
	// path, which never decodes, runs only while the set is empty (the
	// clean-word invariant, wantFast). stuck marks banks with an injected
	// stuck-at fault. stageErr tallies uncorrectable errors per bank;
	// stageDown marks banks mapped out by bypass. Once a bypass halves the
	// buffer, addrLimit is the usable address count and the upper half of
	// every healthy bank is the redirect region for its mapped-out partner.
	// lastInit spaces initiations while degraded.
	eccMem    []uint8
	ecc       *eccCode
	eccDirty  []bool
	eccDirtyN int
	stuck     []bool
	stageErr  []int
	stageDown []bool
	halved    bool
	failed    bool
	addrLimit int
	lastInit  int64
	// writeStartAt[addr] is the initiation cycle of the write wave that
	// last allocated addr; fault engines use it (AddrStable) to target
	// only fully deposited words.
	writeStartAt []int64

	// Batched fast path (structure-of-arrays Tick engine). While fastMode
	// is on, every wave's memory traffic is committed in one contiguous
	// sweep at initiation — legal because a cell's words are immutable once
	// injected and wave orderings are stage-uniform (two waves touching one
	// address never interleave out of initiation order) — and its departure
	// is posted to departAt, the cycle-indexed completion ring, instead of
	// being driven word by word through outReg. waveMask has one bit per
	// ctrl slot holding a live op; committed marks slots whose memory
	// traffic was already applied by the batched path, so the per-stage
	// exact loop (which the two paths hand over to when the fault layer's
	// per-stage seams arm) skips them. forcedExact latches the exact path on
	// once a per-stage fault seam (control/input-register injection, stuck
	// banks) has been exercised.
	fastMode    bool
	forcedExact bool
	waveMask    uint64
	committed   uint64
	departAt    []int // [cycle & depMask]: the output completing then, -1 for none
	// ctrlMask is k-1 when k is a power of two — slotOf then replaces the
	// hardware divide the per-cycle ring indexing would otherwise pay —
	// and -1 otherwise. depMask is len(departAt)-1 (the completion ring is
	// always sized to a power of two ≥ k+1). occMask holds one bit per
	// output with queued cells, maintained alongside its census counter
	// (outOcc) as the link side's pendMask is alongside pendingWrites; they
	// let the arbitration scans visit only live candidates when n ≤ 64.
	ctrlMask int
	depMask  int
	occMask  uint64

	// The read side arbitrates over one ready word, occMask & idleMask &
	// openMask (n ≤ 64). The link side's idleMask has one bit per output
	// whose egress slot is empty: cleared by startTransmit, set by
	// finishDeparture — the two edges of linkFree[o], which both engines
	// execute at exactly those cycles, so it is derived state (never
	// serialized, rebuilt by NewFromSnapshot). openMask is the pushed level
	// of the output gates (SetOutputOpen); outOpen is the same level per
	// output, for the cut-through test and the n > 64 index walk.
	openMask uint64
	outOpen  []bool

	// inDelay is the §4.3 link-pipelining delay line: slot c%R holds the
	// heads that entered the switch boundary R cycles ago and reach the
	// input registers this cycle. delayCount tracks cells in flight on
	// the pipelined wires for conservation accounting.
	inDelay      [][]*cell.Cell
	delayScratch []*cell.Cell // reused heads vector for the delayed wave
	delayCount   int
	// auditScratch is the per-bank claim table AuditInvariants reuses so
	// online audits stay allocation-free.
	auditScratch []int
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
		inReg:        make([][]cell.Word, n),
		outReg:       make([]outWord, k),
		ctrl:         make([]Op, k),
		free:         fifo.NewFreeList(cfg.Cells),
		queues:       fifo.NewMultiQueue(n*cfg.VCs, cfg.Cells*n),
		nodes:        make([]desc, cfg.Cells*n),
		nfree:        fifo.NewFreeList(cfg.Cells * n),
		refcnt:       make([]int, cfg.Cells),
		outOcc:       make([]int, n),
		wrSkip:       make([]int64, n),
		inStalls:     make([]int64, n),
		inDrops:      make([]int64, n),
		outDrops:     make([]int64, n),
		linkFree:     make([]int64, n),
		outOpen:      make([]bool, n),
		vcRR:         make([]int, n),
		loaded:       make([]int, 0, k),
		stageErr:     make([]int, k),
		stageDown:    make([]bool, k),
		addrLimit:    cfg.Cells,
		lastInit:     -2,
		writeStartAt: make([]int64, cfg.Cells),
	}
	s.linkSide.init(n, k, cfg.LinkPipeline)
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
	for i := range s.inReg {
		s.inReg[i] = make([]cell.Word, k)
	}
	for o := range s.outOpen {
		s.outOpen[o] = true
	}
	s.openMask = s.idleMask
	s.cAccepted = s.counter.Hot("accepted")
	s.cDropPolicy = s.counter.Hot("drop-policy")
	s.cDropPushout = s.counter.Hot("drop-pushout")
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

// rrDist is input i's distance from the write round-robin pointer — the
// position the legacy scan would visit i at.
func (s *Switch) rrDist(i int) int {
	d := i - s.writeRR
	if d < 0 {
		d += s.n
	}
	return d
}

// occInc/occDec maintain output o's queued-cell census (count + bitset),
// as the link side's pendSet/pendClear do for the pending writes. Every
// consumer of a mask is gated on n ≤ 64.
func (s *Switch) occInc(o int) {
	s.outOcc[o]++
	s.occMask |= uint64(1) << uint(o)
}

func (s *Switch) occDec(o int) {
	s.outOcc[o]--
	if s.outOcc[o] == 0 {
		s.occMask &^= uint64(1) << uint(o)
	}
}

// memIdx maps the (stage, address) view onto the flat address-major
// buffer array: a wave's k words are contiguous at addr*k.
func (s *Switch) memIdx(st, addr int) int { return addr*s.k + st }

// setCtrl writes one control-ring slot, maintaining the SoA occupancy
// bookkeeping: waveMask, the bitset of live ops (k ≤ 64). Overwriting a
// slot always clears its committed bit — the new op's memory traffic has
// not been applied yet. The op is taken by pointer (never retained) so the
// per-cycle call moves no 40-byte struct.
func (s *Switch) setCtrl(slot int, op *Op) {
	s.ctrl[slot] = *op
	bit := uint64(1) << uint(slot) // slot ≥ 64 shifts to 0: mask unused there
	if op.Kind != OpNone {
		s.waveMask |= bit
	} else {
		s.waveMask &^= bit
	}
	s.committed &^= bit
}

// wantFast reports whether the batched structure-of-arrays path may run:
// no fault seam is open and the bitset masks fit. Stuck-at faults and an
// active bypass route every word through the fault layer; forcedExact
// latches after a per-stage fault seam fired; and the masks need k ≤ 64.
// ECC alone does not pin the exact path: decoding a word nobody has flipped
// is a no-op, so the batched path — which deposits matching check bits and
// never decodes — may run exactly while no stored word carries an injected
// upset (eccDirtyN, see InjectMemoryFault). Nothing that only watches the
// switch is listed: the observer and the fig. 5 tracer tap both engines.
func (s *Switch) wantFast() bool {
	return !s.forcedExact && s.eccDirtyN == 0 &&
		s.stuck == nil && !s.halved && s.k <= 64
}

// dropFast leaves the batched fast path immediately. The input registers —
// not maintained per cycle while batching — are materialized first, so the
// exact path (and anything that reads or faults inReg) resumes from valid
// state, and the deferred deposits land in the banks. Nothing on the link
// side changes hands: each output's transmission stays in its egress slot.
// Waves committed by the fast path stay marked in the committed mask; the
// exact execute loop skips them and their departures complete through the
// departAt ring.
func (s *Switch) dropFast() {
	if !s.fastMode {
		return
	}
	s.materializeInReg()
	s.materializeLazy()
	s.fastMode = false
}

// materializeLazy deposits every deferred unicast payload into the bank
// array (masked, exactly as the eager write sweep would have) and clears
// the lazy table, restoring the invariant that s.mem holds all committed
// write traffic. Idempotent; called on every seam that reads the array
// directly.
func (s *Switch) materializeLazy() {
	if s.lazyCount == 0 {
		return
	}
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
	s.lazyCount--
}

// deposit is a whole write wave's bank traffic in one sweep: the k words of
// src, masked to the word width, land at address a together with their
// check bits when ECC is on — so whichever engine reads the address next
// finds consistent (word, check) pairs.
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

// materializeInReg rebuilds the input-register rows from the cells
// currently occupying them: the canonical full-row form (every word of the
// current arrival, masked). Positions the exact engine would not have
// latched yet hold the very words the upcoming latch cycles would write,
// so resuming per-cycle latching from this state is behavior-identical;
// rows that never held a cell stay zero. Called when the fast path hands
// over to the exact path and when a snapshot is taken while batching, so
// serialized state is deterministic regardless of how long the fast path
// ran.
func (s *Switch) materializeInReg() {
	wb := s.cfg.WordBits
	for i := range s.inflight {
		a := &s.inflight[i]
		if !a.active {
			continue
		}
		row := s.inReg[i]
		for j := 0; j < s.k; j++ {
			row[j] = a.c.Words[j].Mask(wb)
		}
	}
}

// forceExact is the fault layer's hand-over: a per-stage seam (control
// injection, input-register injection, stuck banks) was exercised, so the
// per-stage exact path must run from now on — permanently, since the
// seam's effect on in-flight state cannot be re-derived.
func (s *Switch) forceExact() {
	s.dropFast()
	s.forcedExact = true
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
// the control ring and the input rows' occupancy, which both tick engines
// maintain, so the switch runs on whichever engine it would run on
// untraced, and a tracer installed at any cycle reports from that cycle on
// exactly what one installed at cycle 0 would have (emitTrace).
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
	s.outOpen[out] = open
	bit := uint64(1) << uint(out) // out ≥ 64 shifts to 0: mask unused there
	if open {
		s.openMask |= bit
	} else {
		s.openMask &^= bit
	}
}

// OutputOpen reports output out's gate level (see SetOutputOpen).
func (s *Switch) OutputOpen(out int) bool { return s.outOpen[out] }

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
// push-out eviction; bypass flushes are fault-layer state and do not
// fire it). reusable is true only when the switch provably holds no
// remaining reference to the cell — the caller may recycle it
// immediately; otherwise the cell's payload may still be read (and
// discarded) by the inert input register until its cell time ends. The
// multistage fabric uses the hook to retire per-cell flight state and
// free the dead cell's credit.
func (s *Switch) SetDropCellHook(f func(c *cell.Cell, reusable bool)) {
	s.onDropCell = f
}

// SetLeanDepartures elides per-departure work no consumer will read: the
// reassembled observed cell (Departure.Cell is left nil — Expected and
// the timing fields are still booked), the per-departure corruption
// compare, and the per-switch cut-latency histogram. The multistage
// fabric enables it on interior nodes, where drains are consumed only
// for cell accounting and integrity is verified end-to-end at ejection;
// leave it off wherever Departure.Cell, the Corrupt counter, or
// CutLatency() are observed.
func (s *Switch) SetLeanDepartures(on bool) { s.leanDepart = on }

// Tick advances the switch one clock cycle. heads[i], when non-nil, is a
// cell whose head word arrives at input i in this cycle; it must be
// exactly K words long and the input link must not be mid-cell (the link
// carries one word per cycle, so heads may be at most K cycles apart).
// heads may be nil when no cell arrives anywhere.
func (s *Switch) Tick(heads []*cell.Cell) {
	// Mode selection. Dropping to the exact path is done eagerly by the
	// seams that require it (the fault layer); entering the
	// fast path is deferred until no un-committed wave is in flight and no
	// output-register drive is pending, so neither path ever has to
	// reconstruct the other's mid-wave state.
	if s.fastMode {
		if !s.wantFast() {
			s.dropFast()
		}
	} else if s.wantFast() && s.waveMask&^s.committed == 0 && len(s.loaded) == 0 {
		// Hand-over: with every wave committed and no drive pending, every
		// occupied egress slot holds a fully materialized departure already
		// posted to the completion ring — the batched engine's own
		// invariant, so there is nothing to convert.
		s.fastMode = true
	}
	switch {
	case s.tracer != nil:
		s.tickTraced(heads)
	case s.fastMode:
		s.tickFast(heads)
	default:
		s.tickExact(heads)
	}
}

// tickExact is the per-stage cycle-accurate path: the original fig. 5
// machine, walking the ctrl ring stage by stage. It runs while one of the
// fault layer's per-stage seams is open (wantFast).
func (s *Switch) tickExact(heads []*cell.Cell) {
	c := s.cycle

	heads = s.delayStep(c, heads)

	// Departures the batched fast path scheduled before handing over
	// complete through the ring; their words are fully materialized.
	s.completeDue(c)

	// Phase 1 — egress: output registers loaded in the previous cycle
	// drive their outgoing links now ("in the next cycle, this register
	// drives the desired outgoing link", §3.2).
	// s.loaded lists exactly the stages whose output register was loaded
	// last cycle; every one of them drives its link now. The word lands in
	// the link's egress record; the k-th word completes a departure.
	for _, st := range s.loaded {
		rg := &s.outReg[st]
		if s.drive(rg.out, rg.word, c) {
			s.finishDeparture(rg.out, c)
		}
		rg.valid = false
	}
	s.loaded = s.loaded[:0]

	// Phase 2 — arbitration: choose at most one new wave for stage M0.
	// The slot being claimed last held the wave initiated k cycles ago,
	// which completed its stage-(k-1) operation in the previous cycle.
	base := s.slotOf(c)
	if s.eccDirtyN > 0 && s.ctrl[base].Kind != OpNone {
		s.eccRetire(s.ctrl[base].Addr)
	}
	var op Op
	s.arbitrate(c, &op)
	s.setCtrl(base, &op)

	// Per-input backpressure accounting: every arrival still waiting for
	// its write wave after arbitration waited one more cycle. This is what
	// makes buffer exhaustion visible per port instead of a silent retry
	// (the aggregate §3.4 stall signal lives in observeCycle).
	s.accrueStalls(c)

	if s.obs != nil {
		s.observeCycle(c, s.ctrl[base])
	}

	// Phases 3+4 — execute: stage st performs the op of the wave initiated
	// at cycle c-st ("stage s+1 repeats stage s's operation next cycle",
	// §3.3); the ring indexing replaces the per-stage control-word shift.
	// Reads and writes go through the fault-tolerance layer (degrade.go)
	// only when it can act — ECC armed, a stuck-at fault injected, or a
	// bypass active — and hit the RAM directly otherwise. A write-through
	// taps the data bus directly, so the RAM plays no part in the
	// departing word (§3.3).
	fastMem := s.eccMem == nil && s.stuck == nil && !s.halved
	idx := base
	for st := 0; st < s.k; st++ {
		slot := idx
		op := s.ctrl[idx]
		if idx--; idx < 0 {
			idx = s.k - 1
		}
		if s.committed&(uint64(1)<<uint(slot)) != 0 {
			// The batched fast path already applied this wave's memory
			// traffic and posted its departure to departAt; re-executing
			// its stages would double-drive the output.
			continue
		}
		switch op.Kind {
		case OpWrite:
			if fastMem {
				s.mem[op.Addr*s.k+st] = s.inReg[op.In][st]
			} else {
				s.writeWord(st, op.Addr, op.Remap, s.inReg[op.In][st])
			}
		case OpRead:
			var w cell.Word
			if fastMem {
				w = s.mem[op.Addr*s.k+st]
			} else {
				w = s.readWord(st, op.Addr, op.Remap)
			}
			s.outReg[st] = outWord{word: w, out: op.Out, loadedAt: c, valid: true}
			s.loaded = append(s.loaded, st)
		case OpWriteThrough:
			w := s.inReg[op.In][st]
			if fastMem {
				s.mem[op.Addr*s.k+st] = w
			} else {
				s.writeWord(st, op.Addr, op.Remap, w)
			}
			s.outReg[st] = outWord{word: w, out: op.Out, loadedAt: c, valid: true}
			s.loaded = append(s.loaded, st)
		}
	}

	// Phase 5 — ingress: arriving words are latched into the input
	// registers at the end of the cycle.
	for i := 0; i < s.n; i++ {
		a := &s.inflight[i]
		if a.active {
			if j := c - a.head; j > 0 && j < int64(s.k) {
				s.inReg[i][j] = a.c.Words[j].Mask(s.cfg.WordBits)
			}
		}
		if heads == nil || heads[i] == nil {
			continue
		}
		if lost := s.admit(i, heads[i], c); lost != nil {
			s.overrun(i, lost)
		}
		s.inReg[i][0] = heads[i].Words[0].Mask(s.cfg.WordBits)
	}

	// Faulty-stage bypass: a bank that has accumulated BypassThreshold
	// uncorrectable ECC errors is mapped out at the end of the cycle,
	// outside the execute phase (degrade.go).
	if t := s.cfg.BypassThreshold; t > 0 {
		for b := 0; b < s.k; b++ {
			if !s.stageDown[b] && s.stageErr[b] >= t {
				s.mapOutBank(b)
			}
		}
	}

	s.cycle++
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

// tickFast is the batched structure-of-arrays cycle. One arbitration (the
// same policy code as the exact path), one contiguous sweep applying the
// chosen wave's entire memory traffic, and ring-scheduled completion — no
// per-stage ctrl walk, no per-cycle input-register latching, no per-word
// output drive. It is bit-identical to tickExact for every configuration
// wantFast admits: a cell's words are immutable once injected, and wave
// schedules are stage-uniform (stage st of the wave initiated at c0 runs
// at exactly c0+st), so two waves touching one address always execute each
// stage in initiation order — committing a wave's full traffic at
// initiation commutes with every other wave, and a departure completed at
// c0+k carries the exact words the per-stage drive would have assembled.
func (s *Switch) tickFast(heads []*cell.Cell) {
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
	// arbitrate would return Op{} for, with no side effect (lastInit moves
	// only on success). Skipping the call is therefore bit-identical.
	var op Op
	base := s.slotOf(c)
	if s.pendingWrites != 0 || s.queues.Total() != 0 {
		s.arbitrate(c, &op)
	}
	if op.Kind != OpNone || s.ctrl[base].Kind != OpNone {
		s.setCtrl(base, &op)
	}
	if op.Kind != OpNone {
		s.commitWave(base, &op, c)
	}

	s.accrueStalls(c)
	if s.obs != nil {
		s.observeCycle(c, op)
	}

	// Ingress: record arrivals. The input registers are not latched per
	// cycle — commitWave (and materializeInReg on hand-over to the exact
	// path) read the words straight from the immutable cell.
	for i, nc := range heads {
		if nc == nil {
			continue
		}
		if lost := s.admit(i, nc, c); lost != nil {
			s.overrun(i, lost)
		}
	}

	s.cycle++
}

// overrun is the switch's share of the accounting for a cell the link side
// found displaced on input i (linkSide.admit): the per-port loss tallies,
// the observer, the drop hook (reusable: the row is being overwritten,
// nothing references the cell).
func (s *Switch) overrun(i int, lost *cell.Cell) {
	s.inDrops[i]++
	s.outDrops[lost.Dst]++
	if s.obs != nil {
		s.obs.DropOverrun.Inc()
	}
	if s.onDropCell != nil {
		s.onDropCell(lost, true)
	}
}

// completeDue books the departure the batched engine posted for cycle c, if
// any. At most one wave initiates per cycle, so at most one completes per
// cycle — the one posted k cycles ago. (Kept within the inliner's budget:
// it runs every cycle on both engines.)
func (s *Switch) completeDue(c int64) {
	if o := s.departAt[s.depSlot(c)]; o >= 0 {
		s.finishDeparture(o, c)
	}
}

// commitWave applies the entire memory traffic of the wave just initiated
// at cycle c in one contiguous sweep and schedules its departure,
// replacing the k per-stage executions of the exact path. The flat
// address-major layout makes each case a single run over mem[addr*k :
// addr*k+k].
func (s *Switch) commitWave(slot int, op *Op, c int64) {
	m := s.cfg.wordMask() // once for the whole sweep
	switch op.Kind {
	case OpWrite:
		if s.refcnt[op.Addr] == 1 {
			// Unicast: defer the deposit. The cell outlives its only
			// read wave's commit (it is recycled no earlier than the
			// departure it becomes), so the read serves from it
			// directly — touching neither the bank array nor its check
			// bits. Multicast keeps the eager copy — an early departure
			// may hand the cell back while copies still queue.
			s.memLazy[op.Addr] = s.inflight[op.In].c
			s.lazyCount++
		} else {
			s.deposit(op.Addr, s.inflight[op.In].c.Words)
		}
	case OpRead:
		r := s.rxHead[op.Out]
		if lc := s.memLazy[op.Addr]; lc != nil {
			r.load(lc.Words[:s.k], m)
			s.memLazy[op.Addr] = nil
			s.lazyCount--
		} else {
			r.words = append(r.words, s.mem[op.Addr*s.k:op.Addr*s.k+s.k]...)
		}
		r.start = c + 1
		s.scheduleDepart(op.Out, c)
	case OpWriteThrough:
		// The departing words come straight off the data bus (§3.3), and
		// pickWrite already released the buffer address — nothing could
		// ever read the RAM deposit, so it is skipped entirely.
		r := s.rxHead[op.Out]
		r.load(s.inflight[op.In].c.Words[:s.k], m)
		r.start = c + 1
		s.scheduleDepart(op.Out, c)
	}
	s.committed |= uint64(1) << uint(slot)
}

// scheduleDepart posts a fully materialized transmission for completion at
// cycle c+k — the cycle the exact path's k-th word drive would call
// finishDeparture. The ring has ≥ k+1 slots and initiations are at most
// one per cycle, so a slot is always consumed (at c0+k) before the next
// wave that maps to it (initiated at least k+1 cycles later) posts.
func (s *Switch) scheduleDepart(out int, c int64) {
	s.departAt[s.depSlot(c+int64(s.k))] = out
}

// accrueStalls charges one stall cycle to every arrival still waiting for
// its write wave after this cycle's arbitration. The pending bitset makes
// the common case (a handful of waiters among n ports) touch only the
// live rows.
func (s *Switch) accrueStalls(c int64) {
	if s.pendingWrites == 0 {
		return
	}
	if s.n <= 64 {
		for m := s.pendMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			if c > s.inflight[i].head {
				s.inStalls[i]++
			}
		}
		return
	}
	for i := range s.inflight {
		if a := &s.inflight[i]; a.active && !a.written && c > a.head {
			s.inStalls[i]++
		}
	}
}

// arbitrate picks this cycle's stage-0 operation, enforcing the degraded
// initiation cadence while a stage bypass is active: a mapped-out stage
// doubles the load on its partner bank's single port, so waves initiated on
// consecutive cycles could collide there. Spacing initiations two cycles
// apart makes every remapped schedule conflict-free again (the §3.4 slot
// argument at half rate).
// The chosen operation is written through op — which must be zeroed by the
// caller and is left untouched on a no-initiation cycle — so the 40-byte
// Op never rides a return-value copy through the picker call chain.
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
	if s.halved && c-s.lastInit < 2 {
		return false
	}
	// Reads first (outgoing links must not idle), then the most urgent
	// pending write, upgraded to a write-through when cut-through applies;
	// NoReadPriority flips the order.
	var ok bool
	if !s.cfg.NoReadPriority {
		if ok = s.pickRead(c, op); !ok {
			ok = s.pickWrite(c, op)
		}
	} else {
		if ok = s.pickWrite(c, op); !ok {
			ok = s.pickRead(c, op)
		}
	}
	if ok {
		s.lastInit = c
		op.Remap = s.halved
	}
	return ok
}

// pickRead selects an idle, open outgoing link with an eligible
// head-of-queue cell, round-robin from readRR. With n ≤ 64 the candidates
// are the set bits of the ready word and arb.FirstFrom rotates to the
// pointer: the visit order of the paper's index walk restricted to the
// outputs that could pass its link, gate and queue probes, so the grant is
// the same and a cycle with nothing ready costs one AND. A ready output
// can still decline (store-and-forward wait, closed VC gates); it leaves
// the local word and the rotation moves on.
func (s *Switch) pickRead(c int64, op *Op) bool {
	scanned := 0
	if s.n <= 64 {
		for w := s.occMask & s.idleMask & s.openMask; w != 0; {
			o := arb.FirstFrom(w, s.readRR)
			scanned++
			if s.tryRead(o, c, op) {
				s.noteRead(scanned, true)
				return true
			}
			w &^= uint64(1) << uint(o)
		}
	} else if s.queues.Total() != 0 {
		// n > 64: the words cannot hold every output, so this is the one
		// place the legacy index walk survives, probing link, gate and
		// queue per output.
		for j, o := 0, s.readRR; j < s.n; j, o = j+1, o+1 {
			if o >= s.n {
				o -= s.n
			}
			scanned++
			if s.linkFree[o] <= c && s.outOpen[o] && s.tryRead(o, c, op) {
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
	if o+1 == s.n {
		s.readRR = 0
	} else {
		s.readRR = o + 1
	}
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
// (earliest deadline first), tie-broken round-robin, and submits it to
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
	best := -1
	var bestHead int64
	if s.n <= 64 {
		// The pending bitset holds exactly the active-and-unwritten rows,
		// visited in ascending index order. The legacy walk visits in
		// round-robin order from writeRR and keeps the first strict
		// improvement, so its winner is the minimum head with ties broken
		// by smallest RR distance — reproduced here with an explicit
		// distance tie-break, making the two scans pick identically.
		for m := s.pendMask; m != 0; m &= m - 1 {
			i := bits.TrailingZeros64(m)
			scanned++
			a := &s.inflight[i]
			if c <= a.head || s.wrSkip[i] > c {
				continue // head arrived only this cycle, or tried already
			}
			if best == -1 || a.head < bestHead ||
				(a.head == bestHead && s.rrDist(i) < s.rrDist(best)) {
				best, bestHead = i, a.head
			}
		}
	} else {
		for j, i := 0, s.writeRR; j < s.n; j, i = j+1, i+1 {
			if i >= s.n {
				i -= s.n
			}
			a := &s.inflight[i]
			if !a.active || a.written {
				continue // no pending cell
			}
			scanned++
			if c <= a.head || s.wrSkip[i] > c {
				continue // head arrived only this cycle, or tried already
			}
			if best == -1 || a.head < bestHead {
				best, bestHead = i, a.head
			}
		}
	}
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
		// (phase 5). With a policy installed, a less urgent arrival may
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
	*s.cAccepted++
	s.initDelay.Add(float64(c - a.head - 1))
	s.obsInitDelay.Observe(c - a.head - 1)
	if best+1 == s.n {
		s.writeRR = 0
	} else {
		s.writeRR = best + 1
	}
	vc := a.c.VC
	if vc < 0 || vc >= s.cfg.VCs {
		panic(fmt.Sprintf("core: cell VC %d out of configured %d channels", vc, s.cfg.VCs))
	}
	dst := a.c.Dst

	// Automatic cut-through, same-cycle variant (unicast only): if the
	// destination link is idle and no cell is queued ahead on any of its
	// VCs, the write wave doubles as the read wave (§3.3).
	if s.cfg.CutThrough && len(a.c.Copies) == 0 &&
		s.linkFree[dst] <= c && s.QueuedFor(dst) == 0 && s.outOpen[dst] &&
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
			panic("core: descriptor-node pool exhausted (impossible: sized cells×ports)")
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
			panic("core: descriptor-node pool exhausted (impossible: sized cells×ports)")
		}
		s.nodes[node] = d
		s.queues.Push(s.qidx(o, vc), node)
		s.occInc(o)
	}
	s.refcnt[addr] = 1 + len(a.c.Copies)
	enqueue(dst)
	for _, o := range a.c.Copies {
		enqueue(o)
	}
	op.Kind, op.In, op.Addr = OpWrite, best, addr
	s.noteWrite(scanned, true)
	return true
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
		s.obsLocal.delivered++
		s.obsCutLat.Observe(lat)
		if ob.Tracer != nil {
			ob.Tracer.Emit(obs.Event{Kind: obs.EvWaveEnd, Cycle: c, In: -1, Out: int32(o), Addr: -1, V: lat})
		}
	}
}
