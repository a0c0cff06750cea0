package core

import "fmt"

// Online invariant auditing.
//
// AuditInvariants cross-checks the switch's redundant state against itself
// at a cycle boundary: conservation of cells, occupancy bookkeeping, the
// free lists' consistency with the reference counts, and §3.2's
// hazard-freedom (each memory bank accessed at most once per cycle). It is
// designed to run online — every N cycles of a production run — so the
// clean path allocates nothing and touches O(Cells + ports·VCs + stages)
// words; errors are constructed only on violation.

// AuditInvariants verifies the switch's internal invariants. It returns
// nil when every check passes and a descriptive error on the first
// violation. Call it between Ticks (any cycle boundary is valid).
//
// Conservation (offered == delivered + dropped + resident) is checked only
// while no multicast cell is resident: multicast counts one offered cell
// per arrival but one delivery per copy, so the unicast identity does not
// hold for it.
func (s *Switch) AuditInvariants() error {
	// Occupancy cross-consistency: per-output occupancy mirrors the VC
	// queue lengths it summarizes.
	totalQueued := 0
	for o := 0; o < s.n; o++ {
		sum := 0
		for vc := 0; vc < s.cfg.VCs; vc++ {
			sum += s.queues.Len(s.qidx(o, vc))
		}
		if s.outOcc[o] != sum {
			return fmt.Errorf("core: audit: output %d occupancy %d, but its VC queues hold %d", o, s.outOcc[o], sum)
		}
		if o < 64 {
			if got := s.occMask&(uint64(1)<<uint(o)) != 0; got != (sum > 0) {
				return fmt.Errorf("core: audit: output %d occupancy bit %v, but %d cells queued", o, got, sum)
			}
			// The ready word's other two terms: the idle bit mirrors the
			// link booking, the open bit the pushed gate level.
			idle, open := s.idleMask&(uint64(1)<<uint(o)) != 0, s.openMask&(uint64(1)<<uint(o)) != 0
			if idle != s.linkIdle(o, s.cycle) || open != s.outOpen[o] {
				return fmt.Errorf("core: audit: output %d ready-word bits idle=%v open=%v at cycle %d, but its link is booked until %d and its gate level is %v",
					o, idle, open, s.cycle, s.linkFree[o], s.outOpen[o])
			}
		}
		totalQueued += sum
	}
	if stray := (s.idleMask | s.openMask) >> uint(s.n); stray != 0 { // n ≥ 64 shifts to 0
		return fmt.Errorf("core: audit: idle/open masks carry bits %#x at or above port %d", stray, s.n)
	}
	if s.queues.Total() != totalQueued {
		return fmt.Errorf("core: audit: multiqueue total %d, per-queue sum %d", s.queues.Total(), totalQueued)
	}

	// Reference counts vs the address free list. Below addrLimit an
	// address is allocated exactly while copies still queue it; at or
	// above addrLimit (possible only after a bypass halved the buffer)
	// addresses are permanently retired: marked allocated, never queued.
	refSum := 0
	multicast := false
	for a := 0; a < s.cfg.Cells; a++ {
		rc := s.refcnt[a]
		if rc < 0 {
			return fmt.Errorf("core: audit: address %d has negative refcnt %d", a, rc)
		}
		if rc > 1 {
			multicast = true
		}
		refSum += rc
		if a < s.addrLimit {
			if (rc > 0) != s.free.Allocated(a) {
				return fmt.Errorf("core: audit: address %d refcnt %d but free list says allocated=%v", a, rc, s.free.Allocated(a))
			}
		} else {
			if rc != 0 || !s.free.Allocated(a) {
				return fmt.Errorf("core: audit: retired address %d (limit %d) has refcnt %d, allocated=%v", a, s.addrLimit, rc, s.free.Allocated(a))
			}
		}
	}
	if refSum != s.queues.Total() {
		return fmt.Errorf("core: audit: refcnt sum %d, queued descriptors %d", refSum, s.queues.Total())
	}
	if got := s.nfree.Size() - s.nfree.Free(); got != s.queues.Total() {
		return fmt.Errorf("core: audit: %d descriptor nodes allocated, %d queued", got, s.queues.Total())
	}

	// Occupancy bounds.
	if b := s.queues.Total(); b > s.addrLimit {
		return fmt.Errorf("core: audit: %d cells buffered, capacity %d", b, s.addrLimit)
	}
	if f := s.free.Free(); f > s.addrLimit {
		return fmt.Errorf("core: audit: %d free addresses, capacity %d", f, s.addrLimit)
	}

	// pendingWrites (count and bitset) mirrors the input rows still
	// awaiting a write wave.
	pending := 0
	for i := range s.inflight {
		waiting := false
		if a := &s.inflight[i]; a.active && !a.written {
			pending++
			waiting = true
		}
		if i < 64 {
			if got := s.pendMask&(uint64(1)<<uint(i)) != 0; got != waiting {
				return fmt.Errorf("core: audit: input %d pending bit %v, but awaiting-write is %v", i, got, waiting)
			}
		}
	}
	if pending != s.pendingWrites {
		return fmt.Errorf("core: audit: pendingWrites %d, but %d input rows await a write wave", s.pendingWrites, pending)
	}

	// SoA control-ring bookkeeping: the wave bitset and the committed mask
	// must mirror the ring (a committed bit is only meaningful on a slot
	// holding a live op).
	var waveMask uint64
	for slot := range s.ctrl {
		if s.ctrl[slot].Kind != OpNone && slot < 64 {
			waveMask |= uint64(1) << uint(slot)
		}
	}
	if s.k <= 64 && waveMask != s.waveMask {
		return fmt.Errorf("core: audit: waveMask %#x, but live control words form %#x", s.waveMask, waveMask)
	}
	if s.committed&^s.waveMask != 0 {
		return fmt.Errorf("core: audit: committed mask %#x marks slots outside the wave mask %#x", s.committed, s.waveMask)
	}

	// Egress slot census, either engine: an output's slot is occupied
	// exactly while its link is booked, and txActive counts the occupied
	// slots. The completion ring posts only outputs whose record the
	// batched path filled, and on that path every occupied slot is posted.
	slots, posted := 0, 0
	for o, r := range s.rxHead {
		if r != nil {
			slots++
		}
		if (r == nil) != s.linkIdle(o, s.cycle) {
			return fmt.Errorf("core: audit: output %d egress slot occupied=%v at cycle %d, but its link is booked until %d", o, r != nil, s.cycle, s.linkFree[o])
		}
	}
	for _, d := range s.departAt {
		if d < 0 {
			continue
		}
		posted++
		if r := s.rxHead[d]; r == nil || len(r.words) != s.k {
			return fmt.Errorf("core: audit: completion ring posts output %d, whose egress slot holds no fully materialized departure", d)
		}
	}
	if slots != s.txActive || (s.fastMode && posted != slots) {
		return fmt.Errorf("core: audit: %d occupied egress slots, but txActive %d and (batched=%v) %d completions posted", slots, s.txActive, s.fastMode, posted)
	}

	// Deferred-deposit table census: every lazy entry belongs to an
	// allocated unicast address on the fast path, and the live count
	// matches (the cold seams rely on it to skip the scan).
	lazy := 0
	for a, lc := range s.memLazy {
		if lc == nil {
			continue
		}
		lazy++
		if !s.fastMode {
			return fmt.Errorf("core: audit: address %d payload still deferred outside the fast path", a)
		}
		if s.refcnt[a] < 1 {
			return fmt.Errorf("core: audit: address %d payload deferred but refcnt %d", a, s.refcnt[a])
		}
	}
	if lazy != s.lazyCount {
		return fmt.Errorf("core: audit: lazyCount %d, but %d payloads deferred", s.lazyCount, lazy)
	}

	// Clean-word invariant: the batched path never decodes, so every live
	// word outside the dirty set must match its check bits, and the count
	// gating wantFast must mirror the flags. (Under an active bypass the
	// batched path is barred for good and one physical row serves two
	// logical addresses, so only the census is checked.)
	if s.eccMem != nil {
		dirty := 0
		for a, flagged := range s.eccDirty {
			if flagged {
				dirty++
				continue
			}
			if s.refcnt[a] > 0 && !s.halved && !s.addrClean(a) {
				return fmt.Errorf("core: audit: live address %d fails its check bits outside the dirty set", a)
			}
		}
		if dirty != s.eccDirtyN {
			return fmt.Errorf("core: audit: eccDirtyN %d, but %d addresses flagged", s.eccDirtyN, dirty)
		}
	}

	// §4.3 delay-line census.
	if s.inDelay != nil {
		inDelay := 0
		for _, slot := range s.inDelay {
			for _, c := range slot {
				if c != nil {
					inDelay++
				}
			}
		}
		if inDelay != s.delayCount {
			return fmt.Errorf("core: audit: delayCount %d, but %d cells occupy the delay line", s.delayCount, inDelay)
		}
	}

	// §3.2 hazard-freedom for the upcoming cycle: stage st will execute
	// the op initiated at cycle-st, touching one physical bank (possibly
	// redirected by an active bypass). No two stages may meet on a bank —
	// the banks are single-ported.
	if err := s.auditHazards(); err != nil {
		return err
	}

	// Conservation: every cell the switch has counted as offered is
	// delivered, dropped, or still resident (input rows, buffer, egress).
	// The §4.3 delay line holds cells not yet counted offered, so it is
	// deliberately absent from both sides.
	if !multicast {
		offered := s.counter.Get("offered")
		resident := int64(s.Buffered() + s.pendingWrites + s.txActive)
		if got := s.counter.Get("delivered") + s.DroppedCells() + resident; got != offered {
			return fmt.Errorf("core: audit: conservation violated: offered %d, delivered+dropped+resident %d (resident %d)",
				offered, got, resident)
		}
	}
	return nil
}

// auditHazards checks that the control words the stages will execute in
// the upcoming cycle touch pairwise distinct physical banks (§3.2: "a
// given memory performs a single access per clock cycle").
func (s *Switch) auditHazards() error {
	c := s.cycle
	// seen[b] = stage that claims bank b this cycle, offset by +1 (0 =
	// unclaimed).
	if s.auditScratch == nil {
		s.auditScratch = make([]int, s.k)
	}
	seen := s.auditScratch
	for b := range seen {
		seen[b] = 0
	}
	for st := 0; st < s.k; st++ {
		op := s.ctrl[s.ctrlSlot(c, st)]
		if op.Kind == OpNone {
			continue
		}
		b, _ := s.bankFor(st, op.Addr, op.Remap)
		if prev := seen[b]; prev != 0 {
			return fmt.Errorf("core: audit: cycle %d: stages %d and %d both access bank %d (§3.2 hazard)", c, prev-1, st, b)
		}
		seen[b] = st + 1
	}
	return nil
}
