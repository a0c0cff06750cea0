package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// Runner is the step-wise form of Run for a *Switch: it drives the switch
// with a cell stream one cycle per Step, recycling every cell, and holds
// every piece of loop-carried driver state (sequence counter, partial
// tallies, drain progress) in exported-able form. The checkpoint layer
// stops it between Steps, snapshots switch + stream + RunnerState, and
// resumes a bit-identical run later. It calls the concrete *Switch (its
// per-cycle loop is the one the ledger measures) and is the switch's
// departure sink: each departure is compared and booked inside the Tick
// that completes it, with no Departure record and no Drain. It shares the
// tallies, drain predicate and bound, result arithmetic and verdict with
// Run, whose RunResult it must reproduce field for field.
//
// Phases: the driven window (cycles Ticks with traffic), then the drain
// (Ticks without arrivals until the switch is empty or the drain bound is
// hit), then done. Step reports false once the run is complete; Result
// finishes the run (driving any remaining Steps) and computes the final
// RunResult.
//
// A driven cycle in which the stream knows ahead of time that no head
// arrives (CellStream.SkipDead) and a Tick could only advance the clock
// (Switch.idle) is coasted: Step adds one to the clock and to the window
// and calls nothing. Whether cells or live control words are inside the
// switch can change only in a Tick, and only Step ticks a runner's switch,
// so that half of the verdict is remembered from the last Step that did
// tick (a fault seam on an empty switch reaches no wave). Everything a call
// between two Steps can change is asked again on every Step, and so ends a
// coast by itself: SetTracer (the fig. 5 tracer is owed every cycle),
// PreTick and Stage (each is owed every cycle too), and CellStream.Extend
// (Session.ExtendSchedule), because the stream is asked, not remembered. A
// restored runner remembers nothing and ticks once before it coasts again.
// SetOutputOpen and SetObserver end no coast: an empty switch has nothing
// to gate and no event to count.
type Runner struct {
	s      *Switch
	cs     *traffic.CellStream
	cycles int64

	pool   *cell.Pool
	heads  []int
	hcells []*cell.Cell
	// prevDrop is the drop hook the switch carried before the runner took
	// it; Result puts it back.
	prevDrop func(c *cell.Cell)

	phase int
	// coast: the last Step left the switch idle. Cleared by every Step that
	// does not coast.
	coast   bool
	driven  int64
	drained int64
	bound   int64
	seq     uint64
	tally

	// PreTick, when set, runs immediately before every Tick with the cycle
	// the switch is about to execute — the seam the fault engine (and any
	// other per-cycle actor) injects through.
	PreTick func(cycle int64)
	// Stage, when set (before the first Step), stands between the stream
	// and the switch's inputs.
	Stage HeadStage
}

// HeadStage is a row of per-link stages in front of the switch's inputs —
// the CRC links of internal/fault, which this package cannot import. A
// link delays, retransmits or abandons heads; the switch never knows.
type HeadStage interface {
	// Offer queues the arrival (seq, dst) on input link in.
	Offer(in int, seq uint64, dst int)
	// Tick advances every link one cycle and sets heads[i] to the cell
	// whose transfer completed on link i (nil otherwise). The stage draws
	// its cells from pool and returns an abandoned one to it.
	Tick(cycle int64, heads []*cell.Cell, pool *cell.Pool)
	// Held counts the cells inside the stage, Failed those it abandoned;
	// every other offered cell has reached the switch.
	Held() int
	Failed() int64
}

// Runner phases.
const (
	runDrive = iota
	runDrain
	runDone
)

// NewRunner builds a runner that will drive s with cs for the given number
// of cycles and then drain. For the length of the run it takes the
// switch's departures and its drop-cell hook: each departure is booked and
// its cell recycled inside the Tick that completes it, so Drain hands out
// nothing meanwhile, and dropped cells are recycled like delivered ones, so
// a hook the caller had installed is not called. Result gives the
// departures back to Drain and puts the caller's hook back.
func NewRunner(s *Switch, cs *traffic.CellStream, cycles int64) *Runner {
	r := &Runner{
		s:      s,
		cs:     cs,
		cycles: cycles,
		pool:   cell.NewPool(s.k),
		heads:  make([]int, s.n),
		hcells: make([]*cell.Cell, s.n),
		tally:  tally{minLat: -1},
		bound:  s.Geometry().DrainBound(),
	}
	s.sink = r.departed
	r.prevDrop = s.onDropCell
	s.SetDropCellHook(r.pool.Put)
	if cycles <= 0 {
		r.phase = runDrain
	}
	return r
}

// Switch returns the switch under test.
func (r *Runner) Switch() *Switch { return r.s }

// departed is the switch's departure sink, called inside the Tick in
// which cell c's tail left: it books the departure (tally.deliver) and
// reuses the cell, which has left the switch, for a later arrival (unicast
// only — every cell here is).
func (r *Runner) departed(c *cell.Cell, _ int, headIn, headOut int64, intact bool) {
	r.deliver(headOut-headIn, intact)
	r.pool.Put(c)
}

// occupancy tracks the buffer occupancy after the last Tick, which it
// returns.
func (r *Runner) occupancy() int {
	b := r.s.Buffered()
	if b > r.res.MaxBuffered {
		r.res.MaxBuffered = b
	}
	return b
}

// Step advances the run by one cycle. It reports false — without ticking —
// once the run is complete.
func (r *Runner) Step() bool {
	switch r.phase {
	case runDrive:
		if r.coast {
			if r.PreTick == nil && r.Stage == nil && r.s.unwatched() && r.cs.SkipDead() {
				// The stream has no head for this cycle, a Tick could only
				// advance the clock and the tallies only add a zero.
				r.s.cycle++
				r.driven++
				r.endWindow()
				return true
			}
			r.coast = false
		}
		if r.Stage != nil {
			r.stepStaged()
			return true
		}
		if r.PreTick != nil {
			r.PreTick(r.s.cycle)
		}
		if r.cs.SkipDead() || r.cs.Heads(r.heads) == 0 {
			// No head anywhere this cycle — on most dead cycles the stream
			// knows so ahead of time and the vector is not even filled: skip
			// the per-port injection scan and let the switch see the nil
			// vector.
			r.s.Tick(nil)
			r.occSum += float64(r.occupancy())
			r.coast = r.s.idle()
		} else {
			for i := range r.hcells {
				r.hcells[i] = nil
				if r.heads[i] != traffic.NoArrival {
					r.seq++
					r.hcells[i] = r.pool.New(r.seq, i, r.heads[i], r.s.cfg.WordBits)
					r.res.Offered++
				}
			}
			r.s.Tick(r.hcells)
			r.occSum += float64(r.occupancy())
		}
		r.driven++
		r.endWindow()
		return true
	case runDrain:
		if r.drained >= r.bound || r.s.Resident() == 0 {
			r.phase = runDone
			return false
		}
		if r.PreTick != nil {
			r.PreTick(r.s.cycle)
		}
		r.s.Tick(nil)
		r.occupancy()
		r.drained++
		return true
	}
	return false
}

// endWindow closes the driven window once its last cycle has run.
func (r *Runner) endWindow() {
	if r.driven >= r.cycles {
		r.res.MeanBuffered = r.occSum / float64(r.cycles)
		r.phase = runDrain
	}
}

// stepStaged is the drive-phase cycle with a head stage installed: the
// arrivals go to the stage and the switch sees what the stage releases.
// The stream is read for exactly cycles cycles, as without a stage, but the
// phase lasts until the stage has run dry — so the drain phase finds it
// empty and keeps its one predicate and its one bound.
func (r *Runner) stepStaged() {
	if r.PreTick != nil {
		r.PreTick(r.s.cycle)
	}
	live := r.driven < r.cycles
	if live && !r.cs.SkipDead() && r.cs.Heads(r.heads) > 0 {
		for i, dst := range r.heads {
			if dst != traffic.NoArrival {
				r.seq++
				r.res.Offered++
				r.Stage.Offer(i, r.seq, dst)
			}
		}
	}
	r.Stage.Tick(r.s.cycle, r.hcells, r.pool)
	r.s.Tick(r.hcells)
	if b := r.occupancy(); live {
		r.occSum += float64(b)
	}
	r.driven++
	if r.driven == r.cycles {
		r.res.MeanBuffered = r.occSum / float64(r.cycles)
	}
	if r.driven >= r.cycles && r.Stage.Held() == 0 {
		r.phase = runDrain
	}
}

// Done reports that the run has completed (drive window and drain).
func (r *Runner) Done() bool { return r.phase == runDone }

// Progress returns the monotone count of cells that have crossed a
// boundary — offered, delivered or dropped, or out of a head stage (handed
// on or abandoned: offered − held). A window over which this does not move
// while cells are pending is a stuck simulation (watchdog).
func (r *Runner) Progress() int64 {
	p := r.res.Offered + r.res.Delivered + r.s.DroppedCells()
	if r.Stage != nil {
		p += r.res.Offered - int64(r.Stage.Held())
	}
	return p
}

// Pending returns the cells resident in the switch or held by the stage.
func (r *Runner) Pending() int {
	if r.Stage != nil {
		return r.s.Resident() + r.Stage.Held()
	}
	return r.s.Resident()
}

// finish fills the result fields computed once at the end of a run.
func (r *Runner) finish() RunResult { return r.tally.finish(r.s, r.driven+r.drained) }

// Result completes the run (stepping to the end if needed), gives the
// switch's departures back to Drain, restores its drop hook, and returns
// the final RunResult with Run's conservation, drain and integrity verdict.
func (r *Runner) Result() (RunResult, error) {
	for r.Step() {
	}
	r.s.sink = nil
	r.s.SetDropCellHook(r.prevDrop)
	res := r.finish()
	var failed int64
	if r.Stage != nil {
		failed = r.Stage.Failed()
	}
	return res, res.check(r.Pending(), failed)
}

// Partial returns the result of an aborted run — the tallies so far plus
// the whole-run fields — without conservation checks (an aborted run still
// holds resident cells by definition). The watchdog uses it to degrade
// gracefully instead of hanging.
func (r *Runner) Partial() RunResult {
	res := r.finish()
	// (A head stage keeps the phase open past the window; the mean is final.)
	if r.phase == runDrive && r.driven > 0 && r.driven < r.cycles {
		res.MeanBuffered = r.occSum / float64(r.driven)
	}
	return res
}

// RunnerState is the exported loop-carried driver state, captured between
// Steps. Together with the switch and stream snapshots it resumes a run
// bit for bit.
type RunnerState struct {
	Phase   int
	Cycles  int64
	Driven  int64
	Drained int64
	Seq     uint64
	MinLat  int64
	// OccSum feeds MeanBuffered.
	OccSum float64
	// Partial result tallies accumulated so far.
	Offered      int64
	Delivered    int64
	Corrupt      int64
	MaxBuffered  int
	MeanBuffered float64
}

// State exports the runner for checkpointing.
func (r *Runner) State() RunnerState {
	return RunnerState{
		Phase:        r.phase,
		Cycles:       r.cycles,
		Driven:       r.driven,
		Drained:      r.drained,
		Seq:          r.seq,
		MinLat:       r.minLat,
		OccSum:       r.occSum,
		Offered:      r.res.Offered,
		Delivered:    r.res.Delivered,
		Corrupt:      r.res.Corrupt,
		MaxBuffered:  r.res.MaxBuffered,
		MeanBuffered: r.res.MeanBuffered,
	}
}

// RestoreState overwrites the runner's loop-carried state with a
// checkpointed one. Call it on a freshly built runner whose switch and
// stream were themselves restored from the same checkpoint.
func (r *Runner) RestoreState(st RunnerState) error {
	if st.Phase < runDrive || st.Phase > runDone {
		return fmt.Errorf("core: runner state phase %d unknown", st.Phase)
	}
	if st.Cycles != r.cycles {
		return fmt.Errorf("core: runner state for a %d-cycle window, runner built for %d", st.Cycles, r.cycles)
	}
	r.phase = st.Phase
	r.coast = false
	r.driven = st.Driven
	r.drained = st.Drained
	r.seq = st.Seq
	r.minLat = st.MinLat
	r.occSum = st.OccSum
	r.res.Offered = st.Offered
	r.res.Delivered = st.Delivered
	r.res.Corrupt = st.Corrupt
	r.res.MaxBuffered = st.MaxBuffered
	r.res.MeanBuffered = st.MeanBuffered
	return nil
}
