// Package srv is the simulation-as-a-service layer: a concurrency-safe
// session manager that wraps ckpt.Session behind an HTTP/JSON API
// (cmd/pmserve). Each session owns one deterministic simulation — switch,
// traffic stream, optional fault plan, buffer policy — created from the
// same spec grammar as batch pmsim; clients advance it in bounded step
// batches or put it in background free-run, stream trace-schedule cells
// in, scrape live RunResult snapshots, per-session Prometheus metrics and
// occupancy telemetry, and checkpoint/fork/restore it through
// internal/ckpt.
//
// # Determinism
//
// The serving layer adds no nondeterminism: all simulation access is
// serialized per session (a mutex held across whole step batches, which
// are ckpt.Session.StepN calls, which are runner Step loops), free-run is
// one goroutine per running session advancing the same StepN primitive at
// batch boundaries, and the observer/telemetry taps never feed back into
// switch state. A served session stepped N cycles — in any mix of batch
// sizes, interleaved with checkpoints and scrapes — is therefore
// bit-identical to the same spec run N cycles in batch pmsim, and its
// checkpoint files are byte-identical to batch checkpoints at the same
// cycle (gated by TestServedBitIdentity and make serve-smoke).
//
// # Shutdown
//
// Drain pauses every free-running session at its next batch boundary (a
// step boundary, so checkpoint-valid by construction) and writes one
// checkpoint per live unfinished session into the checkpoint directory;
// pmserve calls it on SIGTERM/SIGINT, so a restarted server restores the
// fleet with POST /sessions {"restore": "<id>.ckpt"}.
package srv

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/obs"
)

// Options configures a Manager. The zero value serves with the defaults
// noted per field.
type Options struct {
	// MaxSessions bounds concurrently live sessions (≤ 0 = 16). Creating
	// beyond it fails with ErrTooManySessions (HTTP 429).
	MaxSessions int
	// StepMax caps the cycles of one step request (≤ 0 = 1<<20), keeping
	// requests bounded; free-run covers unbounded advancement.
	StepMax int64
	// CkptDir is where checkpoint requests and the shutdown drain write
	// "<id>.ckpt", and where restores read from ("" = checkpointing
	// refused with ErrNoCheckpointDir).
	CkptDir string
	// TelemetryEvery is the occupancy-sampling cadence in cycles
	// (≤ 0 = 256); TelemetryCap the per-session ring capacity
	// (≤ 0 = 4096).
	TelemetryEvery int64
	TelemetryCap   int
	// FreeRunBatch is the cycles a free-running session advances per
	// mutex hold (≤ 0 = 8192) — the granularity at which pause,
	// checkpoint and scrape requests interleave.
	FreeRunBatch int64
}

// withDefaults resolves the zero-value knobs.
func (o Options) withDefaults() Options {
	if o.MaxSessions <= 0 {
		o.MaxSessions = 16
	}
	if o.StepMax <= 0 {
		o.StepMax = 1 << 20
	}
	if o.TelemetryEvery <= 0 {
		o.TelemetryEvery = 256
	}
	if o.TelemetryCap <= 0 {
		o.TelemetryCap = 4096
	}
	if o.FreeRunBatch <= 0 {
		o.FreeRunBatch = 8192
	}
	return o
}

// State is a session's lifecycle state.
type State int

const (
	// StateIdle: stepped only by explicit requests.
	StateIdle State = iota
	// StateRunning: a free-run goroutine is advancing the session.
	StateRunning
	// StateDone: the run completed; the final RunResult is frozen.
	StateDone
	// StateFailed: the run aborted (audit violation, watchdog stall, a
	// panic inside a step); the partial RunResult and the error are
	// frozen.
	StateFailed
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StateIdle:
		return "idle"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Manager owns the session fleet and the server-level metrics registry.
type Manager struct {
	opts Options

	reg      *obs.Registry
	created  *obs.Counter
	restored *obs.Counter
	forked   *obs.Counter
	deleted  *obs.Counter
	active   *obs.Gauge
	cycles   *obs.Counter

	mu       sync.Mutex
	sessions map[string]*Session
	nextID   uint64
	closed   bool
}

// NewManager builds an empty manager.
func NewManager(opts Options) *Manager {
	reg := obs.NewRegistry()
	return &Manager{
		opts:     opts.withDefaults(),
		reg:      reg,
		created:  reg.Counter("pipemem_srv_sessions_created", "Sessions created (fresh specs)."),
		restored: reg.Counter("pipemem_srv_sessions_restored", "Sessions restored from checkpoints."),
		forked:   reg.Counter("pipemem_srv_sessions_forked", "Sessions forked from live sessions."),
		deleted:  reg.Counter("pipemem_srv_sessions_deleted", "Sessions deleted."),
		active:   reg.Gauge("pipemem_srv_sessions_active", "Currently live sessions."),
		cycles:   reg.Counter("pipemem_srv_cycles_total", "Simulation cycles advanced across all sessions."),
		sessions: map[string]*Session{},
	}
}

// Registry exposes the server-level metrics registry.
func (m *Manager) Registry() *obs.Registry { return m.reg }

// Options exposes the resolved options.
func (m *Manager) Options() Options { return m.opts }

// validName rejects ids that would collide with the server's own metric
// label, escape the checkpoint directory, or read ambiguously in URLs.
func validName(name string) error {
	if name == "" || name == "server" || len(name) > 64 {
		return badSpecf("session name %q is reserved or empty (1-64 chars, [a-zA-Z0-9._-], not \"server\")", name)
	}
	for _, r := range name {
		ok := r == '.' || r == '_' || r == '-' ||
			(r >= '0' && r <= '9') || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !ok {
			return badSpecf("session name %q contains %q (want [a-zA-Z0-9._-])", name, r)
		}
	}
	if name[0] == '.' {
		return badSpecf("session name %q must not start with a dot", name)
	}
	return nil
}

// register claims an id (caller-chosen or generated) and slot under the
// session bound. Called with m.mu held.
func (m *Manager) registerLocked(name string) (string, error) {
	if m.closed {
		return "", ErrClosed
	}
	if len(m.sessions) >= m.opts.MaxSessions {
		return "", fmt.Errorf("%w (%d live, max %d): delete or drain one first", ErrTooManySessions, len(m.sessions), m.opts.MaxSessions)
	}
	if name == "" {
		for {
			m.nextID++
			name = fmt.Sprintf("s%d", m.nextID)
			if _, dup := m.sessions[name]; !dup {
				break
			}
		}
		return name, nil
	}
	if err := validName(name); err != nil {
		return "", err
	}
	if _, dup := m.sessions[name]; dup {
		return "", badSpecf("session %q already exists", name)
	}
	return name, nil
}

// newSession builds the per-session plumbing (registry, observer,
// telemetry ring) around a ckpt.Session factory and registers it.
func (m *Manager) newSession(name string, ports int, build func(ckpt.Options) (*ckpt.Session, error)) (*Session, error) {
	reg := obs.NewRegistry()
	observer := core.NewObserver(reg, ports)
	sim, err := build(ckpt.Options{Observer: observer})
	if err != nil {
		return nil, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	id, err := m.registerLocked(name)
	if err != nil {
		return nil, err
	}
	s := &Session{
		id:      id,
		m:       m,
		sim:     sim,
		reg:     reg,
		tsEvery: m.opts.TelemetryEvery,
		ts: obs.NewTimeSeries(m.opts.TelemetryCap,
			"buffered", "resident", "offered", "delivered", "dropped"),
	}
	m.sessions[id] = s
	m.active.Set(int64(len(m.sessions)))
	return s, nil
}

// Create builds a session from a config: a fresh spec, or — when
// cfg.Restore names a checkpoint file in the checkpoint directory — a
// restore. The session starts idle at its creation (or checkpoint) cycle.
func (m *Manager) Create(cfg SessionConfig) (*Session, error) {
	if cfg.Restore != "" {
		path, err := m.ckptPathFor(cfg.Restore)
		if err != nil {
			return nil, err
		}
		ck, err := ckpt.Load(path)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		s, err := m.newSession(cfg.Name, ck.Switch.Config.Ports, func(o ckpt.Options) (*ckpt.Session, error) {
			o.AuditEvery, o.WatchdogWindow = cfg.AuditEvery, cfg.Watchdog
			return ckpt.ResumeFrom(ck, o)
		})
		if err == nil {
			m.restored.Inc()
		}
		return s, err
	}
	spec, err := cfg.Spec()
	if err != nil {
		return nil, err
	}
	s, err := m.newSession(cfg.Name, spec.Switch.Ports, func(o ckpt.Options) (*ckpt.Session, error) {
		o.AuditEvery, o.WatchdogWindow = cfg.AuditEvery, cfg.Watchdog
		sim, err := ckpt.New(spec, o)
		if err != nil {
			// ckpt.New validates the switch config; surface it as the
			// 4xx it is.
			return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		return sim, nil
	})
	if err == nil {
		m.created.Inc()
	}
	return s, err
}

// Fork clones a session at its current cycle into a new session (what-if
// runs): an in-memory checkpoint restored under a fresh id with its own
// registry and telemetry. The source may be idle or free-running; the
// fork point is its next batch boundary.
func (m *Manager) Fork(id, name string) (*Session, error) {
	src, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	src.mu.Lock()
	if src.state == StateDone || src.state == StateFailed {
		src.mu.Unlock()
		return nil, fmt.Errorf("%w: cannot fork a %v session", ErrFinished, src.state)
	}
	ck, err := src.sim.Checkpoint()
	src.mu.Unlock()
	if err != nil {
		return nil, err
	}
	s, err := m.newSession(name, ck.Switch.Config.Ports, func(o ckpt.Options) (*ckpt.Session, error) {
		return ckpt.ResumeFrom(ck, o)
	})
	if err == nil {
		m.forked.Inc()
	}
	return s, err
}

// Get resolves a session id.
func (m *Manager) Get(id string) (*Session, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	s, ok := m.sessions[id]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNotFound, id)
	}
	return s, nil
}

// List returns the live sessions sorted by id — the stable order every
// aggregate surface (session list, /metrics exposition) uses.
func (m *Manager) List() []*Session {
	m.mu.Lock()
	ss := make([]*Session, 0, len(m.sessions))
	for _, s := range m.sessions {
		ss = append(ss, s)
	}
	m.mu.Unlock()
	sort.Slice(ss, func(i, j int) bool { return ss[i].id < ss[j].id })
	return ss
}

// Delete pauses (if free-running) and removes a session. Once Drain has
// begun it refuses with ErrClosed, as Create does: the drain checkpoints
// every session it listed, and one removed under it would fail that drain.
func (m *Manager) Delete(id string) error {
	s, err := m.Get(id)
	if err != nil {
		return err
	}
	s.Pause()
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrClosed
	}
	// Guard against a concurrent Delete racing us to the map.
	if _, ok := m.sessions[id]; ok {
		delete(m.sessions, id)
		m.deleted.Inc()
		m.active.Set(int64(len(m.sessions)))
	}
	return nil
}

// ckptPathFor resolves a checkpoint file name inside the checkpoint
// directory. Only base names are accepted: the HTTP surface must not
// offer path traversal over the server's filesystem.
func (m *Manager) ckptPathFor(name string) (string, error) {
	if m.opts.CkptDir == "" {
		return "", ErrNoCheckpointDir
	}
	if name == "" || name != filepath.Base(name) {
		return "", badSpecf("checkpoint name %q must be a plain file name inside the checkpoint directory", name)
	}
	return filepath.Join(m.opts.CkptDir, name), nil
}

// Checkpoint writes session id's state to "<id>.ckpt" in the checkpoint
// directory and returns the file name. Valid while free-running: the
// write lands on the next batch boundary.
func (m *Manager) Checkpoint(id string) (string, error) {
	s, err := m.Get(id)
	if err != nil {
		return "", err
	}
	name := s.id + ".ckpt"
	path, err := m.ckptPathFor(name)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if errors.Is(s.finalErr, ErrPanicked) {
		return "", fmt.Errorf("%w: %s panicked mid-cycle and has no state to checkpoint", ErrFinished, s.id)
	}
	if err := s.sim.CheckpointTo(path); err != nil {
		return "", err
	}
	return name, nil
}

// Drain is the graceful-shutdown path: refuse new sessions, pause every
// free-running session at its next batch boundary, and checkpoint every
// live unfinished session to the checkpoint directory. It returns the
// written file names (sorted by session id). Sessions that already
// completed or failed have nothing worth freezing and are skipped. With
// no checkpoint directory it only pauses.
func (m *Manager) Drain() ([]string, error) {
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	var files []string
	var firstErr error
	for _, s := range m.List() {
		s.Pause()
		s.mu.Lock()
		st := s.state
		s.mu.Unlock()
		if st == StateDone || st == StateFailed || m.opts.CkptDir == "" {
			continue
		}
		if name, err := m.Checkpoint(s.id); err != nil {
			if firstErr == nil {
				firstErr = fmt.Errorf("drain %s: %w", s.id, err)
			}
		} else {
			files = append(files, name)
		}
	}
	return files, firstErr
}

// Session is one served simulation. All simulation access is serialized
// by mu; the free-run goroutine holds it for one FreeRunBatch at a time,
// so every other operation (checkpoint, fork, scrape, pause) interleaves
// at step boundaries and the run stays deterministic.
type Session struct {
	id string
	m  *Manager

	mu  sync.Mutex
	sim *ckpt.Session
	reg *obs.Registry

	ts         *obs.TimeSeries
	tsEvery    int64
	state      State
	runDone    chan struct{} // non-nil while the free-run goroutine lives
	pauseFlag  atomic.Bool
	finalRes   core.RunResult
	finalErr   error
	haveResult bool
}

// ID returns the session id.
func (s *Session) ID() string { return s.id }

// Registry exposes the session's metrics registry (scraped labeled as
// session="<id>" on the shared /metrics, and raw on /sessions/{id}/metrics).
func (s *Session) Registry() *obs.Registry { return s.reg }

// State returns the lifecycle state.
func (s *Session) State() State {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// Status is the live session readout.
type Status struct {
	ID    string `json:"id"`
	State string `json:"state"`
	// Cycle is the switch clock; TargetCycles the driven window of the
	// spec (the drain tail follows it).
	Cycle        int64 `json:"cycle"`
	TargetCycles int64 `json:"target_cycles"`
	Offered      int64 `json:"offered"`
	Delivered    int64 `json:"delivered"`
	Dropped      int64 `json:"dropped"`
	// Resident counts cells inside the switch; Buffered the shared-buffer
	// occupancy.
	Resident int    `json:"resident"`
	Buffered int    `json:"buffered"`
	Ports    int    `json:"ports"`
	Policy   string `json:"policy,omitempty"`
	Error    string `json:"error,omitempty"`
}

// Status snapshots the live readout.
func (s *Session) Status() Status {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked()
}

// statusLocked is Status with mu held.
func (s *Session) statusLocked() Status {
	sw := s.sim.Switch()
	rs := s.sim.Runner().State()
	st := Status{
		ID:           s.id,
		State:        s.state.String(),
		Cycle:        sw.Cycle(),
		TargetCycles: s.sim.Spec().Cycles,
		Offered:      rs.Offered,
		Delivered:    rs.Delivered,
		Dropped:      sw.DroppedCells(),
		Resident:     sw.Resident(),
		Buffered:     sw.Buffered(),
		Ports:        sw.Config().Ports,
		Policy:       s.sim.Spec().Policy,
	}
	if s.finalErr != nil {
		st.Error = s.finalErr.Error()
	}
	return st
}

// sampleLocked appends one telemetry row. Called with mu held.
func (s *Session) sampleLocked() {
	sw := s.sim.Switch()
	row := s.ts.Sample(sw.Cycle())
	if len(row) == 5 {
		rs := s.sim.Runner().State()
		row[0] = int64(sw.Buffered())
		row[1] = int64(sw.Resident())
		row[2] = rs.Offered
		row[3] = rs.Delivered
		row[4] = sw.DroppedCells()
	}
}

// stepLocked advances up to n cycles, sampling telemetry on the cadence
// grid and freezing the outcome when the run ends. Called with mu held;
// returns cycles advanced and whether the session reached a terminal
// state. It is the one place either stepping path (Step and free-run)
// runs the simulation, and it contains a panic there: the session fails
// with the panic as its terminal error, and the rest of the fleet serves on.
func (s *Session) stepLocked(n int64) (adv int64, terminal bool) {
	start := s.sim.Switch().Cycle()
	defer func() {
		if v := recover(); v != nil {
			c := s.sim.Switch().Cycle()
			adv, terminal = c-start, true
			s.finalRes, s.finalErr = s.salvage(), fmt.Errorf("%w at cycle %d: %v", ErrPanicked, c, v)
			s.haveResult = true
			s.state = StateFailed
			s.m.cycles.Add(adv)
		}
	}()
	for adv < n {
		chunk := s.tsEvery - s.sim.Switch().Cycle()%s.tsEvery
		if chunk > n-adv {
			chunk = n - adv
		}
		a, done, err := s.sim.StepN(chunk)
		adv += a
		if a > 0 && s.sim.Switch().Cycle()%s.tsEvery == 0 {
			s.sampleLocked()
		}
		if err != nil {
			s.finalRes, s.finalErr = s.sim.Partial(), err
			s.haveResult = true
			s.state = StateFailed
			break
		}
		if done {
			s.finalRes, s.finalErr = s.sim.Finish()
			s.haveResult = true
			if s.finalErr != nil {
				s.state = StateFailed
			} else {
				s.state = StateDone
			}
			break
		}
	}
	s.m.cycles.Add(adv)
	return adv, s.state == StateDone || s.state == StateFailed
}

// salvage is the partial result of a session whose step panicked, or the
// zero result if reading even that off the half-ticked switch panics.
func (s *Session) salvage() (res core.RunResult) {
	defer func() { _ = recover() }()
	return s.sim.Partial()
}

// Step advances the session by up to n cycles synchronously. A
// free-running session refuses (ErrBusy: pause first); a finished one
// refuses with ErrFinished. The terminal error of a run that ends inside
// the batch (watchdog stall, audit violation) is returned here once and
// stays readable via Result.
func (s *Session) Step(n int64) (int64, error) {
	return s.step(n, nil)
}

// step is Step, also filling a non-nil st with the readout the step left,
// taken in the same lock hold: a concurrent request cannot move the clock
// between the two.
func (s *Session) step(n int64, st *Status) (int64, error) {
	if n <= 0 {
		return 0, badSpecf("cycles must be positive (got %d)", n)
	}
	if lim := s.m.opts.StepMax; n > lim {
		return 0, badSpecf("cycles %d exceeds the per-request cap %d (use free-run for long advances)", n, lim)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning:
		return 0, fmt.Errorf("%w: pause %s first", ErrBusy, s.id)
	case StateDone, StateFailed:
		return 0, fmt.Errorf("%w: %s is %v", ErrFinished, s.id, s.state)
	}
	adv, _ := s.stepLocked(n)
	if st != nil {
		*st = s.statusLocked()
	}
	if s.state == StateFailed {
		return adv, s.finalErr
	}
	return adv, nil
}

// Start puts the session in free-run: one background goroutine advances
// it batch by batch until the run ends or Pause is called. Idempotent on
// an already-running session; a finished session refuses.
func (s *Session) Start() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	switch s.state {
	case StateRunning:
		return nil
	case StateDone, StateFailed:
		return fmt.Errorf("%w: %s is %v", ErrFinished, s.id, s.state)
	}
	s.pauseFlag.Store(false)
	s.state = StateRunning
	done := make(chan struct{})
	s.runDone = done
	go s.freeRun(done)
	return nil
}

// freeRun is the per-running-session goroutine: advance one batch per
// mutex hold, yield, repeat. It owns the Running→Idle transition on
// pause; terminal transitions happen inside stepLocked.
func (s *Session) freeRun(done chan struct{}) {
	defer close(done)
	batch := s.m.opts.FreeRunBatch
	for {
		if s.pauseFlag.Load() {
			s.mu.Lock()
			if s.state == StateRunning {
				s.state = StateIdle
			}
			s.mu.Unlock()
			return
		}
		s.mu.Lock()
		if s.state != StateRunning {
			s.mu.Unlock()
			return
		}
		_, terminal := s.stepLocked(batch)
		s.mu.Unlock()
		if terminal {
			return
		}
	}
}

// Pause stops free-run at the next batch boundary and waits for the
// goroutine to exit. No-op on sessions that are not free-running.
func (s *Session) Pause() {
	s.pauseFlag.Store(true)
	s.mu.Lock()
	done := s.runDone
	s.runDone = nil
	s.mu.Unlock()
	if done != nil {
		<-done
	}
}

// Result returns the session's RunResult: the frozen final (or abort
// partial) result for a finished session, or a live partial snapshot for
// one still in flight. partial reports which; err is the terminal error
// of a failed session.
func (s *Session) Result() (res core.RunResult, partial bool, err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.haveResult {
		return s.finalRes, false, s.finalErr
	}
	return s.sim.Partial(), true, nil
}

// Extend streams injected cells into a trace-traffic session (appended
// schedule rows); see ckpt.Session.ExtendSchedule. Allowed while
// free-running — rows land at the next batch boundary.
func (s *Session) Extend(rows [][]int) error {
	if len(rows) == 0 {
		return badSpecf("inject needs at least one schedule row")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state == StateDone || s.state == StateFailed {
		return fmt.Errorf("%w: %s is %v", ErrFinished, s.id, s.state)
	}
	if err := s.sim.ExtendSchedule(rows); err != nil {
		return fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	return nil
}

// Series snapshots the telemetry ring (cycle-stamped occupancy rows,
// oldest first) while holding the session lock, so rows are consistent
// even mid-free-run.
func (s *Session) Series() *obs.TimeSeries {
	s.mu.Lock()
	defer s.mu.Unlock()
	// Copy under the lock: WriteJSONL on the live ring would race the
	// stepping goroutine.
	cp := obs.NewTimeSeries(s.ts.Cap(), s.ts.Names()...)
	for i, n := 0, s.ts.Len(); i < n; i++ {
		cycle, vals := s.ts.Row(i)
		copy(cp.Sample(cycle), vals)
	}
	return cp
}
