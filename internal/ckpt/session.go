package ckpt

import (
	"errors"
	"fmt"

	"pipemem/internal/bufmgr"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// Checkpoint is the complete serialized state of a simulation session,
// captured at a cycle boundary between run-driver steps. Together the
// fields resume the run bit for bit: the switch snapshot, the run driver's
// loop-carried tallies, the traffic stream (including its RNG), and — for
// fault runs — the plan text plus the engine's cursor and RNG.
type Checkpoint struct {
	// Format echoes the file-format version inside the body as a
	// cross-check against the header.
	Format int
	// Cycles is the driven-window target of the run being checkpointed.
	Cycles int64
	// CellLen is the per-cell word count the traffic stream was built for
	// (the switch's stage count).
	CellLen int
	// Policy is the bufmgr policy spec string ("" = unmanaged); the policy
	// object itself is rebuilt from it on restore.
	Policy string `json:",omitempty"`
	// Plan is the fault plan text ("" = no fault engine).
	Plan string `json:",omitempty"`

	Switch  *core.SwitchState
	Runner  core.RunnerState
	Traffic traffic.Config
	Stream  *traffic.StreamState
	Fault   *fault.EngineState `json:",omitempty"`
	// Links is the CRC link stage of a link-protected run (absent
	// otherwise, so such a run's files are the bytes they always were).
	Links *fault.StageState `json:",omitempty"`
}

// Spec describes a simulation to run from cycle zero.
type Spec struct {
	// Switch configures the cycle-accurate switch; Traffic the arrival
	// process (Traffic.N must equal Switch.Ports).
	Switch  core.Config
	Traffic traffic.Config
	// Cycles is the driven window; the drain tail follows automatically.
	Cycles int64
	// Policy optionally installs a shared-buffer admission policy by its
	// bufmgr spec string (e.g. "dt:alpha=2").
	Policy string
	// Plan optionally schedules fault injection; FaultSeed resolves its
	// "any" targets. In a run that carries a plan, corrupted deliveries are
	// the measured outcome, not a failure of the run.
	Plan      *fault.Plan
	FaultSeed uint64
	// LinkProtect puts the CRC/retransmit protocol (fault.Stage) on every
	// input link, the target of LinkDrop/LinkCorrupt events; MaxRetries
	// bounds retransmissions per cell (≤ 0 means the default of 4).
	LinkProtect bool
	MaxRetries  int
}

// Options configures a Session's robustness machinery. The zero value
// disables all of it (plain run).
type Options struct {
	// Path is where auto-checkpoints and the watchdog's diagnostic
	// checkpoint are written ("" disables both).
	Path string
	// Every writes a checkpoint to Path every Every cycles (0 = never).
	Every int64
	// AuditEvery runs the online invariant auditor every AuditEvery cycles
	// (0 = never); a violation aborts the run with a diagnostic error.
	AuditEvery int64
	// WatchdogWindow arms the no-progress watchdog: if no cell is offered,
	// delivered or dropped across a full window while cells are resident,
	// the run aborts with ErrStalled, a partial result, an obs.EvWatchdog
	// trace event and a diagnostic checkpoint at Path+".stuck". Choose a
	// window of at least several cell times (the switch delivers at most
	// one cell per output per k cycles). 0 = disarmed.
	WatchdogWindow int64
	// Observer, when set, is installed on the switch; the watchdog and
	// checkpoint writer also emit trace events through it.
	Observer *core.Observer
}

// ErrStalled marks a run aborted by the no-progress watchdog. The returned
// result is the partial tally up to the stall; errors.Is(err, ErrStalled)
// distinguishes it from invariant or I/O failures.
var ErrStalled = errors.New("no-progress watchdog tripped")

// Session owns one run of the simulation: switch, traffic stream, optional
// fault engine, and the step-wise run driver, plus the checkpoint cadence,
// audit cadence and watchdog configured in Options.
type Session struct {
	spec   Spec
	opts   Options
	sw     *core.Switch
	cs     *traffic.CellStream
	runner *core.Runner
	engine *fault.Engine
	links  *fault.Stage

	lastProgress int64
	lastCheck    int64 // cycle of the last watchdog evaluation
}

// New builds a session from scratch.
func New(spec Spec, opts Options) (*Session, error) {
	sw, err := core.New(spec.Switch)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if spec.Policy != "" {
		p, err := bufmgr.Parse(spec.Policy)
		if err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
		sw.SetBufferPolicy(p)
	}
	cs, err := traffic.NewCellStream(spec.Traffic, sw.Config().Stages)
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	s := &Session{spec: spec, opts: opts, sw: sw, cs: cs}
	if spec.Plan != nil {
		s.engine = fault.NewEngine(spec.Plan, spec.FaultSeed)
	}
	if spec.LinkProtect {
		s.links = fault.NewStage(sw.Geometry(), spec.MaxRetries)
	}
	s.install()
	return s, nil
}

// Resume loads the checkpoint at path and rebuilds the session it
// captured. Options are the resuming caller's — cadences and observer are
// not part of the checkpoint.
func Resume(path string, opts Options) (*Session, error) {
	ck, err := Load(path)
	if err != nil {
		return nil, err
	}
	return ResumeFrom(ck, opts)
}

// ResumeFrom rebuilds a session from an in-memory checkpoint.
func ResumeFrom(ck *Checkpoint, opts Options) (*Session, error) {
	if ck.Switch == nil || ck.Stream == nil {
		return nil, errors.New("ckpt: checkpoint is missing switch or stream state")
	}
	sw, err := core.NewFromSnapshot(ck.Switch)
	if err != nil {
		return nil, fmt.Errorf("ckpt: restore switch: %w", err)
	}
	if ck.Policy != "" {
		p, err := bufmgr.Parse(ck.Policy)
		if err != nil {
			return nil, fmt.Errorf("ckpt: restore policy: %w", err)
		}
		sw.SetBufferPolicy(p)
	}
	cs, err := traffic.RestoreCellStream(ck.Traffic, ck.CellLen, ck.Stream)
	if err != nil {
		return nil, fmt.Errorf("ckpt: restore traffic: %w", err)
	}
	s := &Session{
		spec: Spec{Switch: ck.Switch.Config, Traffic: ck.Traffic, Cycles: ck.Cycles, Policy: ck.Policy},
		opts: opts, sw: sw, cs: cs,
	}
	if ck.Plan != "" {
		plan, err := fault.Parse(ck.Plan)
		if err != nil {
			return nil, fmt.Errorf("ckpt: restore fault plan: %w", err)
		}
		if ck.Fault == nil {
			return nil, errors.New("ckpt: checkpoint has a fault plan but no engine state")
		}
		s.spec.Plan = plan
		if s.engine, err = fault.RestoreEngine(plan, ck.Fault); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	if ck.Links != nil {
		s.spec.LinkProtect, s.spec.MaxRetries = true, ck.Links.MaxRetries
		if s.links, err = fault.RestoreStage(sw.Geometry(), ck.Links, sw.Cycle(), ck.Runner.Seq); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	s.install()
	if err := s.runner.RestoreState(ck.Runner); err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	if r := &ck.Runner; s.links != nil && r.Offered != r.Delivered+sw.DroppedCells()+s.links.Failed()+int64(s.runner.Pending()) {
		return nil, fmt.Errorf("ckpt: link state does not balance: offered %d, delivered %d, dropped %d, linkfailed %d, pending %d",
			r.Offered, r.Delivered, sw.DroppedCells(), s.links.Failed(), s.runner.Pending())
	}
	// The watchdog baseline starts at the restore point, not at zero.
	s.lastProgress = s.runner.Progress()
	s.lastCheck = sw.Cycle()
	return s, nil
}

// install wires observer, runner, link stage and fault engine together.
// Shared tail of New and ResumeFrom.
func (s *Session) install() {
	if s.opts.Observer != nil {
		s.sw.SetObserver(s.opts.Observer)
	}
	s.runner = core.NewRunner(s.sw, s.cs, s.spec.Cycles)
	target := fault.Target{Switch: s.sw}
	if s.links != nil {
		if s.opts.Observer != nil {
			s.links.Observe(s.opts.Observer)
		}
		s.runner.Stage = s.links
		target.Links = s.links.Links
	}
	if s.engine != nil {
		eng := s.engine
		s.runner.PreTick = func(cycle int64) { eng.Step(target, cycle) }
	}
}

// Switch exposes the switch under simulation (tests and tooling).
func (s *Session) Switch() *core.Switch { return s.sw }

// Spec returns the spec the session runs (a restored session reports the
// spec rebuilt from its checkpoint). The session server uses it to fork
// what-if copies and to report session configuration.
func (s *Session) Spec() Spec { return s.spec }

// Done reports whether the run has completed (driven window plus drain).
func (s *Session) Done() bool { return s.runner.Done() }

// StepN advances the run by up to n cycles through Step — so the audit,
// watchdog and auto-checkpoint cadences all apply — stopping early when
// the run completes or aborts. It returns the number of cycles actually
// advanced and whether the run is over (completed or aborted); after
// done with a nil error, Finish returns the outcome. This is the serving
// layer's batch-advance primitive: a session stepped in any mix of batch
// sizes is bit-identical to the same spec run in one piece.
func (s *Session) StepN(n int64) (advanced int64, done bool, err error) {
	for advanced < n {
		ok, err := s.Step()
		if err != nil {
			return advanced, true, err
		}
		if !ok {
			return advanced, true, nil
		}
		advanced++
	}
	return advanced, s.runner.Done(), nil
}

// Finish completes the run (driving any remaining cycles) and returns the
// final RunResult with the run's one verdict: a conservation violation or
// a drain that left cells behind is an error; so are corrupted deliveries,
// unless the run carries a fault plan — there they are what it measures.
// Call it once, after StepN reports done or instead of further stepping.
func (s *Session) Finish() (core.RunResult, error) {
	res, err := s.runner.Result()
	if s.engine != nil && errors.Is(err, core.ErrCorrupt) {
		err = nil
	}
	return res, err
}

// Report gathers the fault report of a finished run from its result; nil
// for a run without a fault plan.
func (s *Session) Report(res core.RunResult) *fault.Report {
	if s.engine == nil {
		return nil
	}
	rep := &fault.Report{
		RunResult: res, Corrupt: res.Corrupt, Health: s.sw.Health(),
		Switch: s.sw.Counters().Snapshot(), Engine: s.engine.Counters().Snapshot(),
	}
	if s.links != nil {
		for _, l := range s.links.Links {
			rep.Corrupt += l.Corrupt
			rep.LinkFailed += l.Failed
			rep.LinkRetransmits += l.Retransmits
		}
	}
	return rep
}

// Partial returns the tallies accumulated so far without completing the
// run — the live readout surface for a session still in flight, and the
// degraded result after an abort.
func (s *Session) Partial() core.RunResult { return s.runner.Partial() }

// ExtendSchedule streams externally injected cells into a Trace-traffic
// session: each row is one appended cell time (row[i] the destination
// arriving at input i, or traffic.NoArrival). The spec's schedule is kept
// in sync so a checkpoint taken after an extension restores the extended
// stream bit for bit. Non-trace sessions refuse.
func (s *Session) ExtendSchedule(rows [][]int) error {
	if err := s.cs.Extend(rows); err != nil {
		return err
	}
	s.spec.Traffic.Schedule = s.cs.Schedule()
	return nil
}

// Runner exposes the step-wise run driver.
func (s *Session) Runner() *core.Runner { return s.runner }

// Engine exposes the fault engine (nil when the spec had no plan).
func (s *Session) Engine() *fault.Engine { return s.engine }

// Checkpoint captures the session's complete state. Valid between runner
// Steps (Run only checkpoints there; external callers must not call it
// mid-Tick, which cannot happen from the public API).
func (s *Session) Checkpoint() (*Checkpoint, error) {
	swState, err := s.sw.Snapshot()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	stState, err := s.cs.State()
	if err != nil {
		return nil, fmt.Errorf("ckpt: %w", err)
	}
	ck := &Checkpoint{
		Format:  FormatVersion,
		Cycles:  s.spec.Cycles,
		CellLen: s.sw.Config().Stages,
		Policy:  s.spec.Policy,
		Switch:  swState,
		Runner:  s.runner.State(),
		Traffic: s.spec.Traffic,
		Stream:  stState,
	}
	if s.engine != nil {
		ck.Plan = s.spec.Plan.String()
		if ck.Fault, err = s.engine.State(); err != nil {
			return nil, fmt.Errorf("ckpt: %w", err)
		}
	}
	if s.links != nil {
		ck.Links = s.links.State()
	}
	return ck, nil
}

// CheckpointTo captures the session's state and writes it to path.
func (s *Session) CheckpointTo(path string) error {
	return s.writeCheckpoint(path, 1)
}

func (s *Session) writeCheckpoint(path string, kind int64) error {
	ck, err := s.Checkpoint()
	if err != nil {
		return err
	}
	if err := Save(path, ck); err != nil {
		return err
	}
	if s.opts.Observer != nil {
		s.opts.Observer.Tracer.Emit(obs.Event{
			Kind: obs.EvCheckpoint, Cycle: s.sw.Cycle(), In: -1, Out: -1, Addr: -1, V: kind,
		})
	}
	return nil
}

// Step advances the run one cycle and applies the between-step machinery:
// invariant audit, watchdog, auto-checkpoint. It reports false when the
// run is complete or aborted; after false, Finish returns the outcome.
func (s *Session) Step() (bool, error) {
	if !s.runner.Step() {
		return false, nil
	}
	c := s.sw.Cycle()
	if n := s.opts.AuditEvery; n > 0 && c%n == 0 {
		if err := s.sw.AuditInvariants(); err != nil {
			return false, fmt.Errorf("ckpt: invariant audit failed at cycle %d: %w", c, err)
		}
	}
	if w := s.opts.WatchdogWindow; w > 0 && c-s.lastCheck >= w {
		p := s.runner.Progress()
		if p == s.lastProgress && s.runner.Pending() > 0 {
			return false, s.stall(c)
		}
		s.lastProgress, s.lastCheck = p, c
	}
	if n := s.opts.Every; n > 0 && s.opts.Path != "" && c%n == 0 {
		if err := s.writeCheckpoint(s.opts.Path, 1); err != nil {
			return false, err
		}
	}
	return true, nil
}

// stall handles a tripped watchdog: emit the trace event, write the
// diagnostic checkpoint (best effort), and build the ErrStalled error.
func (s *Session) stall(cycle int64) error {
	resident := s.runner.Pending()
	if s.opts.Observer != nil {
		s.opts.Observer.Tracer.Emit(obs.Event{
			Kind: obs.EvWatchdog, Cycle: cycle, In: -1, Out: -1, Addr: -1, V: int64(resident),
		})
	}
	err := fmt.Errorf("ckpt: %w: no progress over %d cycles (at cycle %d, %d cells resident)",
		ErrStalled, s.opts.WatchdogWindow, cycle, resident)
	if s.opts.Path != "" {
		diag := s.opts.Path + ".stuck"
		if werr := s.writeCheckpoint(diag, 2); werr != nil {
			err = fmt.Errorf("%w; diagnostic checkpoint failed: %v", err, werr)
		} else {
			err = fmt.Errorf("%w; diagnostic checkpoint: %s", err, diag)
		}
	}
	return err
}

// Run drives the session to completion and returns the final result. On a
// watchdog stall or audit failure it degrades gracefully: the partial
// result accumulated so far is returned alongside the error instead of
// hanging or discarding the run.
func (s *Session) Run() (core.RunResult, error) {
	for {
		ok, err := s.Step()
		if err != nil {
			return s.runner.Partial(), err
		}
		if !ok {
			return s.Finish()
		}
	}
}
