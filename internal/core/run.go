package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// RunResult summarizes a traffic-driven RTL run.
type RunResult struct {
	// Cycles is the number of clock cycles simulated (including the
	// drain tail).
	Cycles int64
	// Offered, Delivered and Dropped count cells.
	Offered, Delivered, Dropped int64
	// DropOverrun, DropPolicy and DropPushOut break Dropped down by loss
	// mode: arrivals displaced before obtaining a write wave, arrivals
	// refused by the shared-buffer admission policy, and queued cells
	// preempted by a push-out verdict. (Bypass flushes, the fourth mode,
	// appear only in fault runs.)
	DropOverrun, DropPolicy, DropPushOut int64
	// InputStalls[i] counts cycles input i held a cell still waiting for
	// its write wave — the per-port backpressure that used to be a silent
	// retry. InputDrops[i] and OutputDrops[o] count lost cells by arrival
	// input and by destination output. Nil from the dual-organization
	// driver, which models no shared-buffer admission.
	InputStalls, InputDrops, OutputDrops []int64
	// Corrupt counts integrity violations (must be zero).
	Corrupt int64
	// Utilization is the fraction of output-link cycles carrying data.
	Utilization float64
	// MeanCutLatency is the mean head-in→head-out latency in cycles.
	MeanCutLatency float64
	// MinCutLatency is the smallest observed head latency: 2 cycles with
	// cut-through (one to reach the input register, one through M0).
	MinCutLatency int64
	// MeanInitDelay is the measured §3.4 staggered-initiation delay.
	MeanInitDelay float64
	// MaxBuffered is the peak buffer occupancy in cells; MeanBuffered
	// the time-average (sampled per cycle over the driven window).
	MaxBuffered  int
	MeanBuffered float64
	// CutLatencyOverflow counts departures whose head latency exceeded the
	// resolution of the cut-latency histogram (stats.Hist overflow): their
	// exact values are absent from per-value counts and upper quantiles,
	// though MeanCutLatency still includes them. Nonzero means quantile
	// reports on the histogram are truncated.
	CutLatencyOverflow int64
}

// String implements fmt.Stringer.
func (r RunResult) String() string {
	s := fmt.Sprintf("cycles=%d offered=%d delivered=%d dropped=%d util=%.4f cutlat=%.2f initdelay=%.4f",
		r.Cycles, r.Offered, r.Delivered, r.Dropped, r.Utilization, r.MeanCutLatency, r.MeanInitDelay)
	if r.DropPolicy > 0 || r.DropPushOut > 0 {
		s += fmt.Sprintf(" drops[overrun=%d policy=%d pushout=%d]", r.DropOverrun, r.DropPolicy, r.DropPushOut)
	}
	if r.CutLatencyOverflow > 0 {
		s += fmt.Sprintf(" cutlat-overflow=%d", r.CutLatencyOverflow)
	}
	return s
}

// RunTraffic drives the switch with the cell stream for the given number
// of cycles, then drains in-flight cells, verifying the integrity of every
// departure. The stream's port count and the switch's must agree. It is a
// thin wrapper over Runner, the step-wise (and checkpointable) form of the
// same loop.
func RunTraffic(s *Switch, cs *traffic.CellStream, cycles int64) (RunResult, error) {
	return NewRunner(s, cs, cycles).Result()
}

// TickN advances the switch n cycles in one call: heads arrive in the
// first cycle and the remaining n-1 cycles carry no arrivals. It is
// bit-identical to Tick(heads) followed by n-1 Tick(nil) — drivers with
// gaps between arrivals (light load, batch replay) use it to amortize
// per-cycle dispatch, and once the switch drains to quiescence the
// remaining cycles are skipped in O(1) (event-driven fast-forward).
func (s *Switch) TickN(heads []*cell.Cell, n int64) {
	if n <= 0 {
		return
	}
	s.Tick(heads)
	for m := n - 1; m > 0; m-- {
		// Fast-forward: on the batched path with no observer attached and
		// no cell anywhere in the switch, every remaining cycle would only
		// retire an expired ctrl slot and advance the clock — do that
		// wholesale. (An observer pins per-cycle stepping: its tallies and
		// decimated flushes are per-cycle state.)
		if s.fastMode && s.obs == nil && s.Quiescent() {
			s.jump(m)
			return
		}
		s.Tick(nil)
	}
}

// jump skips m known-dead cycles at once. The only state an idle cycle
// mutates is the ctrl slot it retires (plus the clock), and after k such
// cycles the whole ring has been retired — so clearing the min(m, k)
// slots the skipped cycles would claim and advancing the clock is
// bit-identical to m idle Ticks.
func (s *Switch) jump(m int64) {
	clearN := m
	if clearN > int64(s.k) {
		clearN = int64(s.k)
	}
	for i := int64(0); i < clearN; i++ {
		slot := s.slotOf(s.cycle + i)
		if s.ctrl[slot].Kind != OpNone {
			s.clearCtrl(slot)
		}
	}
	s.cycle += m
}

// Quiescent reports that no cell is anywhere inside the switch — not on
// the pipelined link wires, not awaiting a write wave, not buffered, not
// streaming out of an egress link. Ticking a quiescent switch without
// arrivals changes nothing but the clock and the retiring control ring.
func (s *Switch) Quiescent() bool { return s.Resident() == 0 }

// Resident returns the number of cells currently inside the switch in any
// form: crossing pipelined link wires, awaiting a write wave in the input
// registers, buffered, or streaming out of an egress link. Conservation
// demands offered == delivered + dropped + Resident() at every instant.
func (s *Switch) Resident() int {
	return s.Buffered() + s.pendingWrites + s.txActive + s.delayCount
}
