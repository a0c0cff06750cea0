package core

import (
	"fmt"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// Runner is the step-wise form of RunTraffic: it drives a switch with a
// cell stream one cycle per Step, holding every piece of loop-carried
// driver state (sequence counter, partial tallies, drain progress) in
// exported-able form. The checkpoint layer stops it between Steps,
// snapshots switch + stream + RunnerState, and resumes a bit-identical run
// later; callers that want the original all-at-once behavior use
// RunTraffic, which is now a thin wrapper.
//
// Phases: the driven window (cycles Ticks with traffic), then the drain
// (Ticks without arrivals until the switch is empty or the drain bound is
// hit), then done. Step reports false once the run is complete; Result
// finishes the run (driving any remaining Steps) and computes the final
// RunResult exactly as RunTraffic always has.
type Runner struct {
	s      *Switch
	cs     *traffic.CellStream
	cycles int64

	pool   *cell.Pool
	heads  []int
	hcells []*cell.Cell
	// limbo holds the cells the switch dropped while their words may still
	// be streaming into an input register, oldest first, each with the
	// first cycle it may be refilled. A recycling cache like pool: losing
	// it costs allocations, never behavior, so it is not in RunnerState.
	limbo []deadCell
	// prevDrop is the drop hook the switch carried before the runner took
	// it; Result puts it back.
	prevDrop func(c *cell.Cell, reusable bool)

	phase     int
	driven    int64
	drained   int64
	bound     int64
	seq       uint64
	minLat    int64
	busyWords int64
	occSum    float64
	res       RunResult

	// PreTick, when set, runs immediately before every Tick with the cycle
	// the switch is about to execute — the seam the fault engine (and any
	// other per-cycle actor) injects through.
	PreTick func(cycle int64)

	finished bool
}

// deadCell is a dropped cell waiting out the rest of its cell time.
type deadCell struct {
	c    *cell.Cell
	free int64
}

// Runner phases.
const (
	runDrive = iota
	runDrain
	runDone
)

// NewRunner builds a runner that will drive s with cs for the given number
// of cycles and then drain. It enables the switch's drain-recycle mode and
// takes its drop-cell hook for the length of the run (dropped cells are
// recycled like delivered ones, so a hook the caller had installed is not
// called meanwhile); Result switches recycling off again and puts the
// caller's hook back.
func NewRunner(s *Switch, cs *traffic.CellStream, cycles int64) *Runner {
	r := &Runner{
		s:      s,
		cs:     cs,
		cycles: cycles,
		pool:   cell.NewPool(s.k),
		heads:  make([]int, s.n),
		hcells: make([]*cell.Cell, s.n),
		minLat: -1,
		// The drain bound covers the worst case of a full buffer funneled
		// through one output.
		bound: int64((s.cfg.Cells + 2) * s.k * 2),
	}
	s.SetDrainRecycle(true)
	r.prevDrop = s.onDropCell
	s.SetDropCellHook(r.recycleDropped)
	if cycles <= 0 {
		r.phase = runDrain
	}
	return r
}

// recycleDropped is the switch's drop hook: a lost cell goes back to the
// pool like a delivered one — at once when the switch holds no reference,
// else k cycles on, when its cell time has certainly ended (a departure is
// recycled no earlier than that either).
func (r *Runner) recycleDropped(c *cell.Cell, reusable bool) {
	if reusable {
		r.pool.Put(c)
		return
	}
	r.limbo = append(r.limbo, deadCell{c, r.s.cycle + int64(r.s.k)})
}

// reclaim pools the dropped cells whose cell time has ended.
func (r *Runner) reclaim() {
	n := 0
	for n < len(r.limbo) && r.limbo[n].free <= r.s.cycle {
		r.pool.Put(r.limbo[n].c)
		n++
	}
	if n > 0 {
		// At most a cell time's worth of drops is ever held: a short copy.
		r.limbo = r.limbo[:copy(r.limbo, r.limbo[n:])]
	}
}

// Switch returns the switch under test.
func (r *Runner) Switch() *Switch { return r.s }

// collect books the departures of the last Tick and tracks occupancy.
func (r *Runner) collect() {
	for _, d := range r.s.Drain() {
		r.res.Delivered++
		r.busyWords += int64(r.s.k)
		if !d.Cell.Equal(d.Expected) {
			r.res.Corrupt++
		}
		lat := d.HeadOut - d.HeadIn
		if r.minLat < 0 || lat < r.minLat {
			r.minLat = lat
		}
		// The injected cell has left the switch; reuse it for a later
		// arrival (unicast only — every cell here is).
		r.pool.Put(d.Expected)
	}
	if b := r.s.Buffered(); b > r.res.MaxBuffered {
		r.res.MaxBuffered = b
	}
}

// Step advances the run by one cycle. It reports false — without ticking —
// once the run is complete.
func (r *Runner) Step() bool {
	switch r.phase {
	case runDrive:
		if r.PreTick != nil {
			r.PreTick(r.s.cycle)
		}
		if r.cs.SkipDead() || r.cs.Heads(r.heads) == 0 {
			// No head anywhere this cycle — on most dead cycles the stream
			// knows so ahead of time and the vector is not even filled: skip
			// the per-port injection scan and let the switch's dead-cycle
			// path see the nil vector.
			r.s.Tick(nil)
		} else {
			r.reclaim()
			for i := range r.hcells {
				r.hcells[i] = nil
				if r.heads[i] != traffic.NoArrival {
					r.seq++
					r.hcells[i] = r.pool.New(r.seq, i, r.heads[i], r.s.cfg.WordBits)
					r.res.Offered++
				}
			}
			r.s.Tick(r.hcells)
		}
		r.collect()
		r.occSum += float64(r.s.Buffered())
		r.driven++
		if r.driven >= r.cycles {
			r.res.MeanBuffered = r.occSum / float64(r.cycles)
			r.phase = runDrain
		}
		return true
	case runDrain:
		if r.drained >= r.bound ||
			!(r.s.Buffered() > 0 || r.s.pendingWrites > 0 || r.s.txActive > 0) {
			r.phase = runDone
			return false
		}
		if r.PreTick != nil {
			r.PreTick(r.s.cycle)
		}
		r.s.Tick(nil)
		r.collect()
		r.drained++
		return true
	}
	return false
}

// Done reports that the run has completed (drive window and drain).
func (r *Runner) Done() bool { return r.phase == runDone }

// Progress returns the monotone count of cells that have crossed a
// boundary — offered, delivered or dropped. A window over which this does
// not move while cells are resident is a stuck simulation (watchdog).
func (r *Runner) Progress() int64 {
	return r.res.Offered + r.res.Delivered + r.s.DroppedCells()
}

// finish fills the result fields computed once at the end of a run.
func (r *Runner) finish() RunResult {
	res := r.res
	res.Cycles = r.s.cycle
	r.s.SyncObserver() // final occupancy-gauge publish (decimated in Tick)
	res.DropOverrun = r.s.counter.Get("drop-overrun")
	res.DropPolicy = r.s.counter.Get("drop-policy")
	res.DropPushOut = r.s.counter.Get("drop-pushout")
	res.Dropped = r.s.DroppedCells()
	res.InputStalls = append([]int64(nil), r.s.inStalls...)
	res.InputDrops = append([]int64(nil), r.s.inDrops...)
	res.OutputDrops = append([]int64(nil), r.s.outDrops...)
	res.MeanCutLatency = r.s.cutLatency.Mean()
	res.MinCutLatency = r.minLat
	res.MeanInitDelay = r.s.initDelay.Mean()
	res.CutLatencyOverflow = r.s.cutLatency.Overflow()
	// Utilization normalizes by every simulated cycle of this run — driven
	// window plus drain tail — so link activity during the drain cannot
	// push the ratio past 1.0.
	// (A run of no cycles at all used no link; 0/0 would be a NaN, which
	// encoding/json refuses to marshal.)
	if ticks := r.driven + r.drained; ticks > 0 {
		res.Utilization = float64(r.busyWords) / float64(ticks*int64(r.s.n))
	}
	return res
}

// Result completes the run (stepping to the end if needed), restores the
// switch's drain mode and drop hook, and returns the final RunResult with the same
// conservation and integrity checks RunTraffic has always enforced.
func (r *Runner) Result() (RunResult, error) {
	for r.Step() {
	}
	r.finished = true
	r.s.SetDrainRecycle(false)
	r.s.SetDropCellHook(r.prevDrop)
	res := r.finish()
	if res.Delivered+res.Dropped+int64(r.s.Resident()) != res.Offered {
		return res, fmt.Errorf("core: conservation violated: offered %d, delivered %d, dropped %d, pending %d",
			res.Offered, res.Delivered, res.Dropped, r.s.Resident())
	}
	if res.Corrupt > 0 {
		return res, fmt.Errorf("core: %d corrupted cells", res.Corrupt)
	}
	return res, nil
}

// Partial returns the result of an aborted run — the tallies so far plus
// the whole-run fields — without conservation checks (an aborted run still
// holds resident cells by definition). The watchdog uses it to degrade
// gracefully instead of hanging.
func (r *Runner) Partial() RunResult {
	res := r.finish()
	if r.phase == runDrive && r.driven > 0 {
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
	// BusyWords feeds Utilization; OccSum feeds MeanBuffered.
	BusyWords int64
	OccSum    float64
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
		BusyWords:    r.busyWords,
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
	r.driven = st.Driven
	r.drained = st.Drained
	r.seq = st.Seq
	r.minLat = st.MinLat
	r.busyWords = st.BusyWords
	r.occSum = st.OccSum
	r.res.Offered = st.Offered
	r.res.Delivered = st.Delivered
	r.res.Corrupt = st.Corrupt
	r.res.MaxBuffered = st.MaxBuffered
	r.res.MeanBuffered = st.MeanBuffered
	return nil
}
