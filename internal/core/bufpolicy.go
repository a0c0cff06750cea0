package core

import (
	"pipemem/internal/bufmgr"
	"pipemem/internal/obs"
)

// Shared-buffer management (bufmgr wiring).
//
// The switch consults an optional bufmgr.Policy at write-wave admission:
// before a pending arrival claims a free buffer address, the policy sees
// the live occupancy (through the bufView adapter below) and rules
// accept, drop, or push-out. No policy installed — the default — is the
// paper's complete sharing with backpressure: arrivals wait for a free
// address and are lost only by input-register overrun.
//
// Accounting keeps the conservation invariant exact under every verdict:
// a policy drop consumes the pending arrival (Counts.DropPolicy), a
// push-out removes one queued copy from the buffer (Counts.DropPushout),
// and both add into DroppedCells alongside the pre-existing overrun mode,
// so offered == delivered + DroppedCells() + Resident() at every instant.

// bufView adapts the switch to the read-only bufmgr.State interface. One
// instance is boxed once at construction (Switch.polState), so consulting
// a policy in the Tick hot path allocates nothing.
type bufView struct{ s *Switch }

// Capacity implements bufmgr.State, reporting the buffer's address count.
func (v *bufView) Capacity() int { return v.s.cfg.Cells }

// Free implements bufmgr.State.
func (v *bufView) Free() int { return v.s.free.Free() }

// Queued implements bufmgr.State.
func (v *bufView) Queued(out int) int { return v.s.outOcc[out] }

// QueuedVC implements bufmgr.State.
func (v *bufView) QueuedVC(out, vc int) int { return v.s.queues.Len(v.s.qidx(out, vc)) }

// Ports implements bufmgr.State.
func (v *bufView) Ports() int { return v.s.n }

// VCs implements bufmgr.State.
func (v *bufView) VCs() int { return v.s.cfg.VCs }

// CellCycles implements bufmgr.State: one cell occupies an output link
// for K cycles, the per-cell service time delay-based policies divide by.
func (v *bufView) CellCycles() int { return v.s.k }

// Cycle implements bufmgr.State.
func (v *bufView) Cycle() int64 { return v.s.cycle }

// SetBufferPolicy installs (or, with nil, removes) the shared-buffer
// admission policy consulted at write-wave admission. The default — no
// policy — behaves exactly like bufmgr.CompleteSharing: admit while a
// free address exists, backpressure otherwise. Install before driving
// traffic; swapping policies mid-run is allowed between Ticks.
func (s *Switch) SetBufferPolicy(p bufmgr.Policy) { s.policy = p }

// BufferPolicy returns the installed admission policy (nil = default
// complete sharing).
func (s *Switch) BufferPolicy() bufmgr.Policy { return s.policy }

// DroppedCells totals every loss mode the switch has: displaced arrivals,
// policy refusals and push-out victims. Conservation demands
// offered == delivered + DroppedCells() + Resident().
func (s *Switch) DroppedCells() int64 {
	return s.counts.DropOverrun + s.counts.DropPolicy + s.counts.DropPushout
}

// dropPolicy consumes input in's pending arrival on a Drop verdict: the
// input register row is released (no write wave will ever be requested)
// and the loss is booked against the arrival's input and its destination
// output.
func (s *Switch) dropPolicy(in int, a *arrival) {
	a.written = true
	s.pendClear(in)
	s.inStalls[in] += s.cycle - a.head - 1
	s.counts.DropPolicy++
	s.inDrops[in]++
	s.outDrops[a.c.Dst]++
	if o := s.obs; o != nil && o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: obs.EvDrop, Cycle: s.cycle, In: int32(in), Out: int32(a.c.Dst), Addr: -1})
	}
	if s.onDropCell != nil {
		s.onDropCell(a.c)
	}
}

// pushOut evicts the head descriptor of queue (out, vc) on a PushOut
// verdict, freeing its buffer address for the arrival being admitted.
// Evicting the head (drop-from-front) is the only removal the FIFO
// descriptor queues support, and it is safe against the victim's own
// write wave still being in flight: any wave initiated this cycle trails
// it stage by stage, so every reused location is rewritten strictly after
// the victim wrote it. A multicast victim's address is freed only when
// its last queued copy is gone; if other copies remain, the push-out
// removed a copy but freed nothing and the arrival keeps waiting.
func (s *Switch) pushOut(out, vc int) {
	if out < 0 || out >= s.n || vc < 0 || vc >= s.cfg.VCs {
		return // malformed verdict: treat as plain backpressure
	}
	node, ok := s.queues.Pop(s.qidx(out, vc))
	if !ok {
		return
	}
	d := &s.nodes[node]
	addr := d.addr
	s.nfree.Put(node)
	s.occDec(out)
	s.refcnt[addr]--
	if s.refcnt[addr] == 0 {
		// The victim's payload may still be lazily deferred; deposit it
		// before the address is recycled so the bank array keeps the same
		// bytes an eager write would have left behind.
		s.materializeAddr(addr)
		s.free.Put(addr)
	}
	s.counts.DropPushout++
	s.outDrops[out]++
	if o := s.obs; o != nil && o.Tracer != nil {
		o.Tracer.Emit(obs.Event{Kind: obs.EvDrop, Cycle: s.cycle, In: -1, Out: int32(out), Addr: int32(addr)})
	}
	if s.onDropCell != nil && s.refcnt[addr] == 0 {
		// Fire only when the last copy is gone. A write wave of the victim
		// still in flight committed at initiation (its deferred payload was
		// deposited above), or reads the input row, not the cell.
		s.onDropCell(d.c)
	}
}
