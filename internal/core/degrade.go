package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
)

// Faulty-stage bypass and graceful degradation.
//
// The pipelined memory has no redundancy between stages: every cell needs
// one word in every one of the K banks, so a dead bank cannot simply be
// skipped. Instead, banks are paired (bank b with b^1; the odd bank out in
// an odd-K configuration pairs downward) and the buffer's address space is
// split in half. When bank b is mapped out:
//
//   - usable buffer addresses shrink to addrLimit = Cells/2;
//   - every access of a wave's stage b at address a < addrLimit is
//     redirected to the partner bank at address a + addrLimit — the upper
//     half of each healthy bank becomes the spare region for its partner;
//   - all resident cells are flushed ("drop-bypass" per queued copy) and
//     the free list is rebuilt over the low addresses, so no later read
//     ever targets a pre-bypass location;
//   - wave initiations are spaced two cycles apart (arbitrate), since a
//     redirected stage doubles the port load on its partner bank; with the
//     2-cycle cadence no two waves ever meet on one single-ported bank.
//
// Waves already in flight when the bypass trips keep their original bank
// schedule (Op.Remap is frozen at initiation): a read started before the
// map-out completes from the physical bank that held its data, and the
// stale tail of a flushed write harmlessly touches retired locations.
//
// The degradation mirrors §5's area-vs-capacity tradeoff at run time:
// losing one of K banks costs half the buffer capacity and half the peak
// initiation rate, but the switch keeps forwarding traffic and integrity
// checks stay honest. Losing both banks of a pair is unsurvivable; the
// switch keeps running but Health.Failed is raised and delivered data is
// no longer trustworthy.

// Health is a snapshot of the switch's fault-tolerance state, the
// run-time view a management plane would poll.
type Health struct {
	// StageDown[b] reports that memory bank b is mapped out.
	StageDown []bool
	// Bypassed lists the mapped-out banks in ascending order.
	Bypassed []int
	// Degraded reports that a bypass is active: the buffer runs at half
	// capacity and waves are initiated at most every other cycle.
	Degraded bool
	// Failed reports that both banks of a partner pair are down (or a
	// bypass had nowhere to redirect): the shared buffer can no longer
	// store cells reliably and delivered data is suspect.
	Failed bool
	// UsableCells is the current buffer capacity in cell addresses.
	UsableCells int
	// ECCCorrected, ECCUncorrectable and ECCHard mirror the
	// "ecc-corrected", "ecc-uncorrectable" and "ecc-hard" counters (hard:
	// corrected locations that failed their scrub-verify); BypassDrops
	// mirrors "drop-bypass" (queued copies flushed when a stage was mapped
	// out).
	ECCCorrected, ECCUncorrectable, ECCHard, BypassDrops int64
}

// Health reports the current fault-tolerance state.
func (s *Switch) Health() Health {
	h := Health{
		StageDown:        append([]bool(nil), s.stageDown...),
		Degraded:         s.halved,
		Failed:           s.failed,
		UsableCells:      s.addrLimit,
		ECCCorrected:     s.counter.Get("ecc-corrected"),
		ECCUncorrectable: s.counter.Get("ecc-uncorrectable"),
		ECCHard:          s.counter.Get("ecc-hard"),
		BypassDrops:      s.counter.Get("drop-bypass"),
	}
	for b, down := range s.stageDown {
		if down {
			h.Bypassed = append(h.Bypassed, b)
		}
	}
	return h
}

// partner returns the bank paired with st for bypass redirection.
func (s *Switch) partner(st int) int {
	p := st ^ 1
	if p >= s.k {
		p = st - 1
	}
	return p
}

// bankFor resolves a wave's (stage, address) access to a physical (bank,
// row). Only remapped waves (initiated under an active bypass) follow the
// redirect; their addresses are always below addrLimit, so the partner's
// upper half is in range.
func (s *Switch) bankFor(st, addr int, remap bool) (int, int) {
	if remap && s.halved && s.stageDown[st] && addr < s.addrLimit {
		if p := s.partner(st); !s.stageDown[p] {
			return p, addr + s.addrLimit
		}
	}
	return st, addr
}

// writeWord performs stage st's write of a wave at address addr. A bank
// with an injected stuck-at fault still takes the write — the fault sits
// on its data lines (senseWord), not in the array — so what a read of it
// decodes against is always the check bits of the word that was meant to
// be there, never whatever an earlier wave left behind: storage no live
// wave has written stays unobservable, which is what lets the batched
// path skip deposits nobody will read (commitWave).
func (s *Switch) writeWord(st, addr int, remap bool, w cell.Word) {
	b, a := s.bankFor(st, addr, remap)
	i := s.memIdx(b, a)
	s.mem[i] = w
	if s.eccMem != nil {
		s.eccMem[i] = s.ecc.encode(w)
	}
}

// senseWord is what bank b's data lines present for row a: the stored
// word, or all-ones — whatever the array holds — if the bank has a
// stuck-at fault.
func (s *Switch) senseWord(b, a int) cell.Word {
	if s.stuck != nil && s.stuck[b] {
		return cell.Word(^uint64(0)).Mask(s.cfg.WordBits)
	}
	return s.mem[s.memIdx(b, a)]
}

// readWord performs stage st's read of a wave at address addr, applying
// the ECC defense layer. Single-bit upsets are corrected and scrubbed
// back, with a read-after-write verify: a location that still fails after
// the scrub holds a hard fault ("ecc-hard") and counts toward the bank's
// bypass threshold, while a repaired transient does not. Multi-bit
// failures ("ecc-uncorrectable") always count toward the threshold. A
// stuck bank's data lines read all-ones regardless of what was written, so
// its reads fail their check bits one way or the other: either as outright
// uncorrectable words, or as "corrected" words whose scrub is withheld
// (it would overwrite the intact array with a guess) and caught by the
// verify.
func (s *Switch) readWord(st, addr int, remap bool) cell.Word {
	b, a := s.bankFor(st, addr, remap)
	w := s.senseWord(b, a)
	if s.eccMem == nil {
		return w
	}
	i := s.memIdx(b, a)
	dec, status := s.ecc.decode(w, s.eccMem[i])
	switch status {
	case eccCorrected:
		s.counter.Inc("ecc-corrected", 1)
		if s.obs != nil {
			s.obs.ECCCorrected.Inc()
		}
		if s.stuck == nil || !s.stuck[b] {
			s.mem[i] = dec
			s.eccMem[i] = s.ecc.encode(dec)
		}
		if _, vs := s.ecc.decode(s.senseWord(b, a), s.eccMem[i]); vs != eccClean {
			s.counter.Inc("ecc-hard", 1)
			s.stageErr[b]++
			if s.obs != nil {
				s.obs.ECCHard.Inc()
			}
		}
	case eccUncorrectable:
		s.counter.Inc("ecc-uncorrectable", 1)
		s.stageErr[b]++
		if s.obs != nil {
			s.obs.ECCUncorrectable.Inc()
		}
	}
	return dec
}

// mapOutBank takes bank b out of service: capacity halves, resident cells
// are flushed, and future waves redirect stage b to the partner bank's
// upper half. Idempotent per bank. Counted under "stage-bypass".
func (s *Switch) mapOutBank(b int) {
	if s.stageDown[b] {
		return
	}
	// Redirected accesses route every word through the fault layer; the
	// batched path must hand over before the address split takes effect.
	s.dropFast()
	s.stageDown[b] = true
	s.counter.Inc("stage-bypass", 1)
	if o := s.obs; o != nil {
		o.StageBypass.Inc()
		o.Tracer.Emit(obs.Event{Kind: obs.EvBypass, Cycle: s.cycle, In: -1, Out: -1, Addr: int32(b)})
	}
	if s.stageDown[s.partner(b)] || s.cfg.Cells < 2 {
		s.failed = true
	}
	if !s.halved {
		s.halved = true
		s.addrLimit = s.cfg.Cells / 2
	}
	// Flush every queued descriptor: resident cells may straddle the dead
	// bank and the address split invalidates their locations either way.
	for q := 0; q < s.queues.Queues(); q++ {
		for {
			node, ok := s.queues.Pop(q)
			if !ok {
				break
			}
			addr := s.nodes[node].addr
			s.counter.Inc("drop-bypass", 1)
			if s.obs != nil {
				s.obs.DropBypass.Inc()
			}
			s.nfree.Put(node)
			s.refcnt[addr]--
			if s.refcnt[addr] == 0 {
				s.free.Put(addr)
			}
		}
	}
	for o := range s.outOcc {
		s.outOcc[o] = 0 // every queue was just flushed
	}
	s.occMask = 0
	// Rebuild the free list over the usable low addresses only; the upper
	// half of every bank is now the redirect region and the corresponding
	// addresses stay permanently retired (never handed out again).
	for {
		if _, ok := s.free.Get(); !ok {
			break
		}
	}
	for a := s.addrLimit - 1; a >= 0; a-- {
		s.free.Put(a)
	}
}

// MapOutStage manually maps out stage st — the maintenance path a
// management plane would use for a bank failing in ways ECC cannot see.
// Call it between Ticks. Reads already in flight complete from the
// physical bank, so mapping out a still-readable bank loses no data beyond
// the flushed buffer residents.
func (s *Switch) MapOutStage(st int) error {
	if st < 0 || st >= s.k {
		return fmt.Errorf("core: stage %d out of range 0…%d", st, s.k-1)
	}
	s.mapOutBank(st)
	return nil
}

// SetStageStuck injects (or clears) a stuck-at fault on bank st: its data
// lines read all-ones whatever the array holds (writes still land, and
// show again once the fault clears). The fault engine's "stuck" events use
// this; with ECC armed the bank's words fail their check bits on every
// read until the bypass threshold maps the bank out.
func (s *Switch) SetStageStuck(st int, stuck bool) {
	if st < 0 || st >= s.k {
		return
	}
	// A stuck bank's behavior is per-word (reads all-ones): inherently
	// per-stage, so the exact path must run from here on.
	s.forceExact()
	if s.stuck == nil {
		s.stuck = make([]bool, s.k)
	}
	s.stuck[st] = stuck
}

// InjectMemoryFault XORs mask into the stored word of the given wave
// stage and buffer address — a single-event upset in the bank array. The
// check bits are deliberately left stale so the ECC layer sees the flip.
// The current bypass remap is applied, so the fault lands where live
// traffic will actually read.
//
// On an ECC switch the upset opens a dirty window: only the exact path
// decodes, so the batched path hands over and stays out until a wave over
// the address has scrubbed or rewritten every word of it (eccRetire). A
// wave the batched path had already committed when the upset lands took
// its words at initiation and does not see it; the next wave over the
// address does — which is why fault engines target AddrStable words.
//
// The flag follows the stored words, not the call: an upset that leaves
// every word of the address matching its check bits (a second flip undoing
// the first, a mask the code cannot see) leaves nothing to decode, so the
// address is unflagged. Between waves the dirty set is therefore exactly
// the addresses holding an unclean word — what NewFromSnapshot rebuilds.
func (s *Switch) InjectMemoryFault(stage, addr int, mask cell.Word) {
	if stage < 0 || stage >= s.k || addr < 0 || addr >= s.cfg.Cells {
		return
	}
	mask = mask.Mask(s.cfg.WordBits)
	if s.eccMem != nil && mask != 0 {
		s.dropFast()
	}
	// A lazily deferred payload must land in the array before the upset
	// does, or the flip would hit stale bytes and vanish.
	s.materializeAddr(addr)
	b, a := s.bankFor(stage, addr, true)
	s.mem[s.memIdx(b, a)] ^= mask
	if s.eccMem != nil && mask != 0 {
		if dirty := !s.addrClean(addr); dirty != s.eccDirty[addr] {
			s.eccDirty[addr] = dirty
			if dirty {
				s.eccDirtyN++
			} else {
				s.eccDirtyN--
			}
		}
	}
}

// eccRetire closes addr's dirty window if it can. The exact path calls it
// when a wave over a flagged address has left stage k-1: a read wave
// scrubbed what it could correct and a write wave rewrote every word, but
// an uncorrectable word stays as it is and a wave that was already past
// the upset's stage when it landed never saw it — so the flag clears only
// once every word of the address decodes clean again.
func (s *Switch) eccRetire(addr int) {
	if s.eccDirty[addr] && s.addrClean(addr) {
		s.eccDirty[addr] = false
		s.eccDirtyN--
	}
}

// addrClean reports whether all k words of addr match their check bits.
func (s *Switch) addrClean(addr int) bool {
	for st := 0; st < s.k; st++ {
		if !s.MemoryClean(st, addr) {
			return false
		}
	}
	return true
}

// MemoryClean reports whether the word at (stage, addr) currently matches
// its check bits (vacuously true without ECC). Fault engines use it to
// keep at most one outstanding flip per word, the regime SEC-DED is
// guaranteed to correct.
func (s *Switch) MemoryClean(stage, addr int) bool {
	if stage < 0 || stage >= s.k || addr < 0 || addr >= s.cfg.Cells {
		return true
	}
	if s.eccMem == nil {
		return true
	}
	b, a := s.bankFor(stage, addr, true)
	i := s.memIdx(b, a)
	_, status := s.ecc.decode(s.mem[i], s.eccMem[i])
	return status == eccClean
}

// InjectControlFault overwrites the control word currently latched at
// stage st — a glitch in the shifting control pipeline of §3.3. The next
// Tick executes the corrupted operation at that stage and shifts it
// onward like any other op.
func (s *Switch) InjectControlFault(st int, op Op) {
	if st < 0 || st >= s.k {
		return
	}
	// A glitch in one stage's latched control word is per-stage state the
	// batched path cannot express: hand over and stay on the exact path.
	// If the glitched slot held a wave the batched path had already
	// committed, that wave's memory traffic and departure stand (it ran to
	// completion at initiation); the injected op executes at the stages the
	// exact machine still owes the slot. Squashing an un-committed read wave
	// mid-cell strands its output's egress slot (the record never fills:
	// reads skip the link for good, a cut-through onto it panics in book),
	// and a glitched-in read drives a link nothing booked (panic in drive)
	// — the model saying the control path broke.
	s.forceExact()
	s.setCtrl(s.ctrlSlot(s.cycle, st), &op)
}

// InjectInputRegisterFault XORs mask into input in's register for word
// position word — an upset in the input latch row before the write wave
// copies it into the buffer.
func (s *Switch) InjectInputRegisterFault(in, word int, mask cell.Word) {
	if in < 0 || in >= s.n || word < 0 || word >= s.k {
		return
	}
	// Materialize the register rows before flipping bits in one (the
	// batched path does not maintain them per cycle), then keep the exact
	// path: only it reads the registers word by word.
	s.forceExact()
	s.inReg[in][word] ^= mask.Mask(s.cfg.WordBits)
}

// QueuedAt returns the number of queued copies (descriptors) that will
// still read buffer address addr — nonzero means the address holds live
// cell data worth targeting with a fault.
func (s *Switch) QueuedAt(addr int) int {
	if addr < 0 || addr >= s.cfg.Cells {
		return 0
	}
	return s.refcnt[addr]
}

// AddrStable reports that address addr holds a fully deposited cell whose
// read wave has not yet been initiated: its write wave has passed every
// stage and at least one descriptor still queues it. A single-bit fault
// injected into a stable word is read exactly once downstream (the first
// read scrubs it), so an engine flipping only stable, clean words gets an
// exact correction count.
func (s *Switch) AddrStable(addr int) bool {
	return s.QueuedAt(addr) > 0 && s.cycle >= s.writeStartAt[addr]+int64(s.k)
}
