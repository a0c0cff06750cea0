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
// Multicast is inside every clause. A multicast cell is one offered cell
// whose write wave queues one copy per destination (Counts.MulticastCopies
// counts the copies beyond the first); each copy is delivered, pushed out
// or flushed on its own, its address is freed when the last copy's read
// wave claims it (refcount 0), and per-output occupancy counts copies. So
// conservation reads offered + multicast copies == delivered + dropped +
// resident, and an address's refcount is the number of queued copies
// naming it.
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
		if err := s.auditOcc(o, sum); err != nil {
			return err
		}
		totalQueued += sum
	}
	if err := s.auditLinks(s.Buffered(), s.DroppedCells()); err != nil {
		return err
	}
	if s.queues.Total() != totalQueued {
		return fmt.Errorf("core: audit: multiqueue total %d, per-queue sum %d", s.queues.Total(), totalQueued)
	}

	// Reference counts vs the address free list: an address is allocated
	// exactly while copies still queue it.
	if s.auditRef == nil {
		s.auditRef = make([]int, s.cfg.Cells)
	}
	named := s.auditRef
	clear(named)
	for node := range s.nodes {
		if s.nfree.Allocated(node) {
			named[s.nodes[node].addr]++
		}
	}
	refSum := 0
	for a := 0; a < s.cfg.Cells; a++ {
		rc := s.refcnt[a]
		if rc != named[a] {
			return fmt.Errorf("core: audit: address %d has refcnt %d, but %d queued copies name it", a, rc, named[a])
		}
		refSum += rc
		if (rc > 0) != s.free.Allocated(a) {
			return fmt.Errorf("core: audit: address %d refcnt %d but free list says allocated=%v", a, rc, s.free.Allocated(a))
		}
	}
	if refSum != s.queues.Total() {
		return fmt.Errorf("core: audit: refcnt sum %d, queued descriptors %d", refSum, s.queues.Total())
	}
	if got := s.nfree.Size() - s.nfree.Free(); got != s.queues.Total() {
		return fmt.Errorf("core: audit: %d descriptor nodes allocated, %d queued", got, s.queues.Total())
	}

	// Occupancy bound (addresses, not copies).
	if f := s.free.Free(); f > s.cfg.Cells {
		return fmt.Errorf("core: audit: %d free addresses, capacity %d", f, s.cfg.Cells)
	}

	// Control-ring bookkeeping: the live-op count mirrors the ring, and the
	// open census its slots.
	waves, open := 0, 0
	for slot := range s.ctrl {
		if s.ctrl[slot].Kind != OpNone {
			waves++
		} else if s.open[slot] {
			return fmt.Errorf("core: audit: ring slot %d is open without a wave", slot)
		}
		if s.open[slot] {
			open++
		}
	}
	if waves != s.waves || open != s.openN {
		return fmt.Errorf("core: audit: %d live waves and %d open slots, but waves %d and openN %d", waves, open, s.waves, s.openN)
	}

	// Egress slot census: an output's slot is occupied exactly while its
	// link is booked, and each occupied slot is posted to the completion
	// ring — holding all k words, or, off the wave commit, one word per
	// stage run so far.
	posted := 0
	for o, r := range s.rxHead {
		if (r == nil) != s.linkIdle(o, s.cycle) {
			return fmt.Errorf("core: audit: output %d egress slot occupied=%v at cycle %d, but its link is booked until %d", o, r != nil, s.cycle, s.linkFree[o])
		}
	}
	for _, d := range s.departAt {
		if d < 0 {
			continue
		}
		posted++
		if r := s.rxHead[d]; r == nil || r.src == nil && len(r.words) != s.k && int64(len(r.words)) != s.cycle-r.start+1 {
			return fmt.Errorf("core: audit: completion ring posts output %d, whose egress slot holds no departure in progress", d)
		}
	}
	if posted != s.txActive {
		return fmt.Errorf("core: audit: %d egress slots occupied, but %d completions posted", s.txActive, posted)
	}

	// Every deferred deposit belongs to an allocated address.
	for a, lc := range s.memLazy {
		if lc != nil && s.refcnt[a] < 1 {
			return fmt.Errorf("core: audit: address %d payload deferred but refcnt %d", a, s.refcnt[a])
		}
	}

	// Clean-word invariant: the wave commit never decodes, so the dirty set
	// must be exactly the addresses holding a word that fails its check bits,
	// and its count must mirror the flags.
	if s.eccMem != nil {
		dirty := 0
		for a, flagged := range s.eccDirty {
			if flagged {
				dirty++
			}
			if flagged == s.addrClean(a) {
				return fmt.Errorf("core: audit: address %d dirty flag %v, but its words decode clean=%v", a, flagged, !flagged)
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
	return nil
}

// AuditInvariants verifies the dual switch's derived state, which its
// pickers trust without re-probing: the occupancy, idle and pending port
// words against the queues, egress slots and input rows they summarize,
// no bits above port n, and conservation. Like Switch.AuditInvariants it
// allocates nothing on the clean path.
func (d *DualSwitch) AuditInvariants() error {
	for o := 0; o < d.n; o++ {
		if err := d.auditOcc(o, d.queues.Len(o)); err != nil {
			return err
		}
	}
	return d.auditLinks(d.Buffered(), d.DroppedCells())
}

// auditOcc checks output o's occupancy bit against the queued copies the
// caller counted for it.
func (l *linkSide) auditOcc(o, queued int) error {
	if got := l.occMask.has(o); got != (queued > 0) {
		return fmt.Errorf("core: audit: output %d occupancy bit %v, but %d cells queued", o, got, queued)
	}
	return nil
}

// auditLinks checks the periphery's own bookkeeping, the clauses both
// switches share: the idle bits and txActive against the egress slots, the
// pending bits and pendingWrites against the input rows, no mask bits from
// port n up, and conservation. Every copy the switch has taken on — one
// per offered cell, plus the extra copies of multicast write waves — is
// delivered, dropped, or still resident (input rows, buffered, egress);
// the caller passes its buffered and dropped counts. The §4.3 delay line
// holds cells not yet counted offered, so it is deliberately absent from
// both sides.
func (l *linkSide) auditLinks(buffered int, dropped int64) error {
	slots := 0
	for o, r := range l.rxHead {
		if r != nil {
			slots++
		}
		if idle := l.idleMask.has(o); idle != (r == nil) {
			return fmt.Errorf("core: audit: output %d idle bit %v, but its egress slot occupied=%v", o, idle, r != nil)
		}
	}
	if slots != l.txActive {
		return fmt.Errorf("core: audit: %d occupied egress slots, but txActive %d", slots, l.txActive)
	}
	pending := 0
	for i := range l.inflight {
		waiting := false
		if a := &l.inflight[i]; a.active && !a.written {
			pending++
			waiting = true
		}
		if got := l.pendMask.has(i); got != waiting {
			return fmt.Errorf("core: audit: input %d pending bit %v, but awaiting-write is %v", i, got, waiting)
		}
	}
	if pending != l.pendingWrites {
		return fmt.Errorf("core: audit: pendingWrites %d, but %d input rows await a write wave", l.pendingWrites, pending)
	}
	if stray := l.occMask.stray(l.n) | l.idleMask.stray(l.n) | l.openMask.stray(l.n) | l.pendMask.stray(l.n); stray != 0 {
		return fmt.Errorf("core: audit: port masks carry bits %#x counted from port %d up", stray, l.n)
	}
	offered := l.counts.Offered + l.counts.MulticastCopies
	resident := int64(buffered + l.pendingWrites + l.txActive)
	if got := l.counts.Delivered + dropped + resident; got != offered {
		return fmt.Errorf("core: audit: conservation violated: offered+copies %d, delivered+dropped+resident %d (resident %d)",
			offered, got, resident)
	}
	return nil
}
