package core

import "pipemem/internal/cell"

// The fault seams and the defense layers: stuck banks, memory upsets under
// SEC-DED, flipped input registers, and the wave commit's test for a fault
// that can still reach a wave.

// writeWord performs stage st's write of a wave at address addr. A bank
// with an injected stuck-at fault still takes the write — the fault sits
// on its data lines (senseWord), not in the array — so what a read of it
// decodes against is always the check bits of the word that was meant to
// be there, never whatever an earlier wave left behind: storage no live
// wave has written stays unobservable, which is what lets the wave commit
// skip deposits nobody will read (commitWave).
func (s *Switch) writeWord(st, addr int, w cell.Word) {
	i := s.memIdx(st, addr)
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

// readWord performs stage b's read of a wave at address a, applying the
// ECC defense layer. Single-bit upsets are corrected and scrubbed back,
// with a read-after-write verify: a location that still fails after the
// scrub holds a hard fault (Counts.ECCHard); multi-bit failures are
// flagged (Counts.ECCUncorrectable). A stuck bank's data lines read all-ones regardless
// of what was written, so its reads fail their check bits one way or the
// other: either as outright uncorrectable words, or as "corrected" words
// whose scrub is withheld (it would overwrite the intact array with a
// guess) and caught by the verify.
func (s *Switch) readWord(b, a int) cell.Word {
	w := s.senseWord(b, a)
	if s.eccMem == nil {
		return w
	}
	i := s.memIdx(b, a)
	dec, status := s.ecc.decode(w, s.eccMem[i])
	switch status {
	case eccCorrected:
		s.counts.ECCCorrected++
		if s.stuck == nil || !s.stuck[b] {
			s.mem[i] = dec
			s.eccMem[i] = s.ecc.encode(dec)
		}
		if _, vs := s.ecc.decode(s.senseWord(b, a), s.eccMem[i]); vs != eccClean {
			s.counts.ECCHard++
		}
	case eccUncorrectable:
		s.counts.ECCUncorrectable++
	}
	return dec
}

// SetStageStuck injects (or clears) a stuck-at fault on bank st: its data
// lines read all-ones whatever the array holds (writes still land, and
// show again once the fault clears). The fault engine's "stuck" events use
// this; with ECC armed the bank's words fail their check bits on every
// read while it is stuck. Reads in flight that have yet to reach the bank
// see the change there. It reports whether the bank's level changed: false
// for a stage the switch lacks, a stuck bank set stuck, a healthy one
// cleared.
func (s *Switch) SetStageStuck(st int, stuck bool) bool {
	if st < 0 || st >= s.k || (s.stuck != nil && s.stuck[st]) == stuck {
		return false
	}
	if s.stuck == nil {
		s.stuck = make([]bool, s.k)
	}
	s.openWhere(s.cycle, func(j int, _ int64, op *Op) bool { return op.Kind == OpRead && j <= st })
	s.stuck[st] = stuck
	if stuck {
		s.stuckN++
	} else {
		s.stuckN--
	}
	return true
}

// InjectMemoryFault XORs mask into the stored word of the given wave
// stage and buffer address — a single-event upset in the bank array. The
// check bits are deliberately left stale so the ECC layer sees the flip.
// A wave in flight over the address that has
// yet to reach the stage meets the upset there: a read decodes (and
// scrubs) or delivers it, a write overwrites it.
//
// The dirty flag follows the stored words, not the call: an upset that
// leaves every word of the address matching its check bits (a second flip
// undoing the first, a mask the code cannot see) leaves nothing to decode,
// so the address is unflagged (eccRecheck).
func (s *Switch) InjectMemoryFault(stage, addr int, mask cell.Word) {
	if stage < 0 || stage >= s.k || addr < 0 || addr >= s.cfg.Cells {
		return
	}
	if mask = mask.Mask(s.cfg.WordBits); mask == 0 {
		return
	}
	s.openWhere(s.cycle, func(st int, _ int64, op *Op) bool { return op.Addr == addr && st <= stage })
	s.materializeAddr(addr) // the flip must hit the payload's bytes
	s.mem[s.memIdx(stage, addr)] ^= mask
	s.eccRecheck(addr)
}

// eccRecheck keeps addr's dirty flag equal to "some word of addr fails its
// check bits", a function of the words alone (NewFromSnapshot rebuilds it).
func (s *Switch) eccRecheck(addr int) {
	if s.eccMem == nil {
		return
	}
	if dirty := !s.addrClean(addr); dirty != s.eccDirty[addr] {
		s.eccDirty[addr] = dirty
		if dirty {
			s.eccDirtyN++
		} else {
			s.eccDirtyN--
		}
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
	i := s.memIdx(stage, addr)
	_, status := s.ecc.decode(s.mem[i], s.eccMem[i])
	return status == eccClean
}

// InjectInputRegisterFault XORs mask into input in's register for word
// position word — an upset in the input latch row before the write wave
// copies it into the buffer. A write that reads the register from this
// cycle on meets it; a word the row's occupant has yet to latch overwrites
// it.
func (s *Switch) InjectInputRegisterFault(in, word int, mask cell.Word) {
	if in < 0 || in >= s.n || word < 0 || word >= s.k {
		return
	}
	if mask = mask.Mask(s.cfg.WordBits); mask == 0 {
		return
	}
	a, r := &s.inflight[in], &s.rows[in]
	occ := a.active && a.head+int64(word) < s.cycle // the occupant's word is latched
	// A write of this row yet to reach the position, of the cell it holds.
	s.openWhere(s.cycle, func(st int, c0 int64, w *Op) bool {
		return w.Kind != OpRead && w.In == in && st <= word && (a.active && a.head < c0) == occ
	})
	if !occ {
		r.regs[s.k-r.occ+word] ^= mask
		return
	}
	r.regs[r.occ+word] ^= mask
	if !r.flipped {
		r.flipped = true
		s.flipN++
	}
}

// The wave commit's fault seam. A wave commits at initiation unless a fault
// can still reach one of its stages — a stuck bank it reads, a word failing
// its check bits, a flipped input register, an address
// an open wave still touches (accesses to one address keep cycle order).
// Such a wave is open: each stage accesses the banks at its own cycle
// (runStages). A seam firing later walks the ≤ k live slots once and opens
// the committed waves it reaches (openWhere). A fault-free switch opens
// nothing and pays one test per initiation.

// seamsOpen reports that an initiation must ask initiate.
func (s *Switch) seamsOpen() bool {
	return s.openN|s.stuckN|s.eccDirtyN|s.flipN != 0
}

// initiate starts the wave just arbitrated at cycle c in ring slot slot,
// open or committed.
func (s *Switch) initiate(slot int, op *Op, c int64) {
	if !(op.Kind == OpRead && s.stuckN > 0 || s.eccDirtyN > 0 && s.eccDirty[op.Addr] ||
		op.Kind != OpRead && s.rows[op.In].flipped || s.openN > 0 && s.touched(op.Addr)) {
		s.commitWave(op, c)
		return
	}
	s.open[slot] = true
	s.openN++
	s.counts.StageWords += int64(s.k)
	switch op.Kind {
	case OpRead:
		s.materializeAddr(op.Addr)
		fallthrough
	case OpWriteThrough:
		s.rxHead[op.Out].start = c + 1
		s.scheduleDepart(op.Out, c)
	}
}

// touched reports that an open wave accesses addr.
func (s *Switch) touched(addr int) bool {
	for slot, open := range s.open {
		if open && s.ctrl[slot].Addr == addr {
			return true
		}
	}
	return false
}

// openWhere opens, before cycle next, each committed wave in flight that
// reach picks by its next stage, initiation cycle and op, with every later
// wave over its address.
func (s *Switch) openWhere(next int64, reach func(st int, c0 int64, op *Op) bool) {
	for st := s.k - 1; st >= 1; st-- {
		slot, c0 := s.ctrlSlot(next, st), next-int64(st)
		if op := &s.ctrl[slot]; op.Kind != OpNone && !s.open[slot] && reach(st, c0, op) {
			s.openChain(op.Addr, c0, next, true)
		}
	}
}

// openChain opens the committed waves over addr initiated at or after from,
// from cycle next on. A committed read took its words at initiation and a
// later write deposited ahead of time, so each opened read writes back the
// words it has yet to read — latest wave first, leaving the earliest
// reader's at every stage — and keeps those already on the link. count
// books the accesses in Counts.StageWords (Snapshot opens without).
func (s *Switch) openChain(addr int, from, next int64, count bool) {
	s.materializeAddr(addr)
	for st := 1; st < s.k; st++ {
		slot, c0 := s.ctrlSlot(next, st), next-int64(st)
		op := &s.ctrl[slot]
		if op.Kind == OpNone || op.Addr != addr || s.open[slot] || c0 < from {
			continue
		}
		if op.Kind != OpWrite {
			r := s.rxHead[op.Out]
			r.materialize()
			for j := st; op.Kind == OpRead && j < s.k; j++ {
				s.writeWord(j, addr, r.words[j])
			}
			r.words, r.clean = r.words[:st], false
		}
		s.open[slot] = true
		s.openN++
		if count {
			s.counts.StageWords += int64(s.k - st)
		}
	}
	s.eccRecheck(addr)
}

// retire releases a ring slot whose wave ran its last stage.
func (s *Switch) retire(slot int) {
	if s.open[slot] {
		s.open[slot], s.openN = false, s.openN-1
	}
}

// runStages runs this cycle's stage of every open wave.
func (s *Switch) runStages(c int64) {
	for st := 0; st < s.k; st++ {
		if slot := s.ctrlSlot(c, st); s.open[slot] {
			s.stage(st, &s.ctrl[slot], c)
		}
	}
}

// stage performs op's stage-st access at cycle c: a write takes input
// register st, a read or write-through adds its word to the egress record.
func (s *Switch) stage(st int, op *Op, c int64) {
	var w cell.Word
	if op.Kind == OpRead {
		w = s.readWord(st, op.Addr)
	} else {
		w = s.rowWord(op.In, st, c)
		s.writeWord(st, op.Addr, w)
	}
	if s.eccDirtyN > 0 && s.eccDirty[op.Addr] {
		s.eccRecheck(op.Addr)
	}
	if op.Kind != OpWrite {
		r := s.rxHead[op.Out]
		r.words = append(r.words, w)
	}
}

// inRow is one input link's row of registers (§3: "one row of input
// registers per link suffices"), held lazily in two k-word buffers the
// switch owns: position j holds the occupant's word once latched (at the
// end of cycle head+j) and the previous occupant's before that. A head's
// words are copied in whole on arrival, flips are XORed into whichever
// buffer position j reads, and flipped marks an occupant carrying one — its
// write wave cannot commit from the cell.
type inRow struct {
	regs    []cell.Word // both buffers, back to back
	occ     int         // where the occupant's starts: 0 or k
	flipped bool
}

// rowWord is input register j of row in at cycle c.
func (s *Switch) rowWord(in, j int, c int64) cell.Word {
	a, r := &s.inflight[in], &s.rows[in]
	at := s.k - r.occ
	if a.active && a.head+int64(j) < c {
		at = r.occ
	}
	return r.regs[at+j] & s.cfg.wordMask()
}

// shiftRow hands input row i to the head arriving on it: the occupant's
// buffer becomes the previous occupant's, and the other takes the head's
// words.
func (s *Switch) shiftRow(i int, words []cell.Word) {
	r := &s.rows[i]
	r.occ = s.k - r.occ
	copy(r.regs[r.occ:], words)
	if r.flipped {
		r.flipped = false
		s.flipN--
	}
}

// AddrStable reports that address addr holds a fully deposited cell whose
// read wave has not yet been initiated: its write wave has passed every
// stage and at least one descriptor still queues it. A single-bit fault
// injected into a stable word is read exactly once downstream (the first
// read scrubs it), so an engine flipping only stable, clean words gets an
// exact correction count.
func (s *Switch) AddrStable(addr int) bool {
	return addr >= 0 && addr < s.cfg.Cells && s.refcnt[addr] > 0 && s.cycle >= s.writeStartAt[addr]+int64(s.k)
}
