package core

import (
	"errors"
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/stats"
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
	// preempted by a push-out verdict.
	DropOverrun, DropPolicy, DropPushOut int64
	// InputStalls[i] counts cycles input i held a cell still waiting for
	// its write wave — the per-port backpressure that used to be a silent
	// retry. InputDrops[i] and OutputDrops[o] count lost cells by arrival
	// input and by destination output. Nil from every organization but
	// Switch: the others model no shared-buffer admission.
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

// Organization is a shared-buffer memory organization behind the paper's
// links: the pipelined memory (Switch, fig. 4), its §3.5 half-quantum pair
// (DualSwitch), the wide memory of fig. 3, the interleaved banks of §5.3.
// Word-serial heads go in through Tick, each whole cell leaves through the
// DepartureSink, and Run is the one plain driver — loop, drain,
// conservation and integrity verdict — for all.
type Organization interface {
	// Tick advances one clock cycle. heads[i], if non-nil, is a cell whose
	// head word arrives on input i this cycle — never while the link's
	// previous cell is still arriving. nil means no arrivals.
	Tick(heads []*cell.Cell)
	// SetDepartureSink installs (or, with nil, removes) the sink each
	// departure is handed to, inside the Tick that completes it. A
	// departure no sink takes need not be kept.
	SetDepartureSink(DepartureSink)
	// Cycle returns the number of Ticks so far.
	Cycle() int64
	// Buffered returns the cells queued in the buffer memory, Resident the
	// cells inside in any form: after every Tick,
	// offered == delivered + DroppedCells() + Resident().
	Buffered() int
	Resident() int
	// DroppedCells totals every loss mode the organization has.
	DroppedCells() int64
	// CutLatency returns the head-in→head-out latency histogram in cycles.
	CutLatency() *stats.Hist
	Geometry() Geometry
	// Report fills the RunResult fields only the organization can measure
	// (loss-mode breakdown, per-port tallies, §3.4 initiation delay); the
	// driver has filled the rest.
	Report(res *RunResult)
}

// Geometry is what a driver must know of an organization to feed it:
// links, cell size in words, word width, buffer capacity in cells.
type Geometry struct{ Ports, CellWords, WordBits, Cells int }

// DrainBound caps the drain tail: a full buffer funneled through one
// output, twice over for cells that cross a bank port both ways.
func (g Geometry) DrainBound() int64 { return int64((g.Cells + 4) * g.CellWords * 4) }

// tally is the bookkeeping of a traffic-driven run, written once for Run
// and Runner: res accumulates Offered, Delivered, Corrupt, MaxBuffered and
// MeanBuffered, finish computes the rest.
type tally struct {
	res    RunResult
	minLat int64 // smallest head latency so far, -1 before any departure
	occSum float64
}

// deliver books one departure, lat cycles from head in to head out, intact
// when its words arrived as injected.
func (t *tally) deliver(lat int64, intact bool) {
	t.res.Delivered++
	if !intact {
		t.res.Corrupt++
	}
	if t.minLat < 0 || lat < t.minLat {
		t.minLat = lat
	}
}

// finish fills the result fields computed once, at the end of a run of
// ticks cycles (driven window plus drain tail).
func (t *tally) finish(org Organization, ticks int64) RunResult {
	res := t.res
	res.Cycles = org.Cycle()
	res.Dropped = org.DroppedCells()
	res.MeanCutLatency = org.CutLatency().Mean()
	res.MinCutLatency = t.minLat
	res.CutLatencyOverflow = org.CutLatency().Overflow()
	// Utilization is busy words — a cell's worth per delivery — over every
	// simulated link-cycle of this run, driven window plus drain tail, so
	// link activity during the drain cannot push the ratio past 1.0.
	// (A run of no cycles at all used no link; 0/0 would be a NaN, which
	// encoding/json refuses to marshal.)
	if g := org.Geometry(); ticks > 0 {
		res.Utilization = float64(res.Delivered*int64(g.CellWords)) / float64(ticks*int64(g.Ports))
	}
	org.Report(&res)
	return res
}

// ErrCorrupt marks the integrity half of a run's verdict: cells were
// delivered, but not as they were injected. A run that injects faults on
// purpose tests for it with errors.Is and reads the count off the result.
var ErrCorrupt = errors.New("corrupted cells")

// check is the verdict on a finished run: every offered cell is accounted
// for — delivered, dropped, abandoned by a link in front of the switch
// (linkFailed) or still pending — the drain left nothing pending, and
// every delivered cell arrived intact.
func (res RunResult) check(pending int, linkFailed int64) error {
	if res.Delivered+res.Dropped+linkFailed+int64(pending) != res.Offered {
		err := fmt.Errorf("core: conservation violated: offered %d, delivered %d, dropped %d, pending %d",
			res.Offered, res.Delivered, res.Dropped, pending)
		if linkFailed > 0 {
			err = fmt.Errorf("%w, linkfailed %d", err, linkFailed)
		}
		return err
	}
	if pending > 0 {
		return fmt.Errorf("core: drain stalled with %d cells pending at cycle %d", pending, res.Cycles)
	}
	if res.Corrupt > 0 {
		return fmt.Errorf("core: %d %w", res.Corrupt, ErrCorrupt)
	}
	return nil
}

// Run drives any organization with the cell stream (of its port count and
// cell length) for the given number of cycles, then ticks without arrivals
// until it is empty or the drain bound is hit, and verifies conservation
// and the integrity of every departure. It is the plain loop; Runner is
// its step-wise, checkpointable form for *Switch. Both book a departure
// the same way: a sink installed for the length of the run delivers it to
// the tally and recycles its cell for a later arrival.
func Run(org Organization, cs *traffic.CellStream, cycles int64) (RunResult, error) {
	g := org.Geometry()
	pool := cell.NewPool(g.CellWords)
	heads := make([]int, g.Ports)
	hcells := make([]*cell.Cell, g.Ports)
	t := tally{minLat: -1}
	org.SetDepartureSink(func(c *cell.Cell, _ int, headIn, headOut int64, intact bool) {
		t.deliver(headOut-headIn, intact)
		pool.Put(c)
	})
	var seq uint64
	ticks := int64(0)
	for ; ticks < cycles; ticks++ {
		cs.Heads(heads)
		for i, dst := range heads {
			hcells[i] = nil
			if dst != traffic.NoArrival {
				seq++
				hcells[i] = pool.New(seq, i, dst, g.WordBits)
				t.res.Offered++
			}
		}
		org.Tick(hcells)
		b := org.Buffered()
		t.res.MaxBuffered = max(t.res.MaxBuffered, b)
		t.occSum += float64(b)
	}
	if ticks > 0 {
		t.res.MeanBuffered = t.occSum / float64(ticks)
	}
	for bound := ticks + g.DrainBound(); ticks < bound && org.Resident() > 0; ticks++ {
		org.Tick(nil)
		t.res.MaxBuffered = max(t.res.MaxBuffered, org.Buffered())
	}
	org.SetDepartureSink(nil)
	res := t.finish(org, ticks)
	return res, res.check(org.Resident(), 0)
}

// RunTraffic is Run for a *Switch through Runner, which recycles every cell.
func RunTraffic(s *Switch, cs *traffic.CellStream, cycles int64) (RunResult, error) {
	return NewRunner(s, cs, cycles).Result()
}

// Geometry implements Organization.
func (s *Switch) Geometry() Geometry {
	return Geometry{Ports: s.n, CellWords: s.k, WordBits: s.cfg.WordBits, Cells: s.cfg.Cells}
}

// Report implements Organization, and publishes the observer one last
// time.
func (s *Switch) Report(res *RunResult) {
	s.SyncObserver()
	res.DropOverrun = s.counts.DropOverrun
	res.DropPolicy = s.counts.DropPolicy
	res.DropPushOut = s.counts.DropPushout
	res.InputStalls = make([]int64, s.n)
	for i := range res.InputStalls {
		res.InputStalls[i] = s.inputStall(i)
	}
	res.InputDrops = append([]int64(nil), s.inDrops...)
	res.OutputDrops = append([]int64(nil), s.outDrops...)
	res.MeanInitDelay = s.initDelay.Mean()
}

// TickN advances the switch n cycles in one call: heads arrive in the
// first cycle and the remaining n-1 cycles carry no arrivals. It is
// bit-identical to Tick(heads) followed by n-1 Tick(nil) — drivers with
// gaps between arrivals (light load, batch replay) use it to amortize
// per-cycle dispatch, and once the switch is idle the remaining cycles are
// skipped in O(1) (event-driven fast-forward).
func (s *Switch) TickN(heads []*cell.Cell, n int64) {
	if n <= 0 {
		return
	}
	s.Tick(heads)
	for m := n - 1; m > 0; m-- {
		if s.idle() {
			s.cycle += m
			return
		}
		s.Tick(nil)
	}
}

// idle reports that a Tick without heads can do nothing but advance the
// clock: no cell is anywhere inside, the control ring has retired its last
// wave, and nobody is owed a call per cycle (a fig. 5 tracer is; an
// observer counts events, and an idle cycle has none). It is the one
// statement of that fact: Tick's dead-cycle exit, TickN's fast-forward and
// Runner.Step's coasting all ask it, and all three do the same thing with
// a yes — add to the clock.
func (s *Switch) idle() bool { return s.Quiescent() && s.waves == 0 && s.unwatched() }

// unwatched is the half of idle a call between Ticks can change.
func (s *Switch) unwatched() bool { return s.tracer == nil }

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
