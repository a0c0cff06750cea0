// Package traffic generates the synthetic workloads the paper's evaluation
// assumes: independent Bernoulli arrivals with uniformly distributed
// destinations (the model of [KaHM87] and [HlKa88]), bursty on/off traffic
// (the regime in which [Dally90] shows early saturation), hotspot traffic,
// and deterministic back-to-back streams for worst-case RTL runs.
//
// Two granularities are provided:
//
//   - Generator produces one event per input port per slot, for the
//     slot-level architecture simulators of internal/sim (one slot = one
//     cell time).
//   - CellStream produces word-granularity cell arrivals, for the
//     cycle-accurate RTL models, where a cell occupies K consecutive cycles
//     on its link and a new head may appear only on an idle link.
//
// All generators are deterministic given their seed (math/rand/v2 PCG; the
// CellStream runs the same generator on state it owns, see pcg.go).
package traffic

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand/v2"
)

// Kind selects an arrival process.
type Kind int

const (
	// Bernoulli is i.i.d. arrivals: each input receives a cell in each
	// slot with probability Load, destination uniform over outputs.
	Bernoulli Kind = iota
	// Bursty is an on/off process: geometrically distributed bursts of
	// mean length BurstLen, every cell of a burst addressed to the same
	// destination, separated by geometrically distributed idle gaps sized
	// to meet Load.
	Bursty
	// Hotspot is Bernoulli arrivals where a fraction HotFrac of cells is
	// addressed to output HotPort and the rest uniformly.
	Hotspot
	// Saturation keeps every input backlogged: a cell is always available
	// in every slot (Load is ignored), destination uniform. Used for
	// saturation-throughput measurements.
	Saturation
	// Permutation is admissible full-rate traffic: in each slot (or cell
	// time) the inputs target a rotating permutation of the outputs, so
	// no output is ever oversubscribed. This is the workload under which
	// a non-blocking switch sustains 100% utilization with bounded
	// queues — the regime of the paper's full-load prototype runs (§4.4).
	// Load scales it down Bernoulli-style.
	Permutation
	// Trace replays a caller-supplied schedule of arrivals verbatim
	// (Config.Schedule); after the schedule ends the source goes idle.
	// Used for regression scenarios and measured traces.
	Trace Kind = 100
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Bernoulli:
		return "bernoulli"
	case Bursty:
		return "bursty"
	case Hotspot:
		return "hotspot"
	case Saturation:
		return "saturation"
	case Permutation:
		return "permutation"
	case Trace:
		return "trace"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Config parameterizes a Generator or CellStream.
type Config struct {
	Kind Kind
	// N is the switch size (N inputs, N outputs).
	N int
	// Load is the offered load per input link in (0, 1].
	Load float64
	// BurstLen is the mean burst length in cells (Bursty only, ≥ 1).
	BurstLen float64
	// HotFrac is the fraction of traffic aimed at HotPort (Hotspot only).
	HotFrac float64
	// HotPort is the hotspot output (Hotspot only).
	HotPort int
	// Seed seeds the generator's PRNG.
	Seed uint64
	// Schedule is the slot-by-slot arrival plan for Kind == Trace:
	// Schedule[s][i] is the destination arriving at input i in slot s,
	// or NoArrival.
	Schedule [][]int
}

// Validate reports whether the configuration is usable.
func (c Config) Validate() error {
	if c.N < 2 {
		return fmt.Errorf("traffic: N = %d, need ≥ 2", c.N)
	}
	if c.Kind == Permutation && c.Load == 0 {
		c.Load = 1 // callers may leave full rate implicit
	}
	if c.Kind == Trace {
		for s, row := range c.Schedule {
			if len(row) != c.N {
				return fmt.Errorf("traffic: trace slot %d has %d entries, want %d", s, len(row), c.N)
			}
			for i, d := range row {
				if d != NoArrival && (d < 0 || d >= c.N) {
					return fmt.Errorf("traffic: trace slot %d input %d: destination %d out of range", s, i, d)
				}
			}
		}
		return nil
	}
	if c.Kind != Saturation && c.Kind != Permutation && (c.Load <= 0 || c.Load > 1) {
		return fmt.Errorf("traffic: load %v out of (0,1]", c.Load)
	}
	if c.Kind == Bursty && c.BurstLen < 1 {
		return fmt.Errorf("traffic: burst length %v, need ≥ 1", c.BurstLen)
	}
	if c.Kind == Hotspot {
		if c.HotFrac < 0 || c.HotFrac > 1 {
			return fmt.Errorf("traffic: hotspot fraction %v out of [0,1]", c.HotFrac)
		}
		if c.HotPort < 0 || c.HotPort >= c.N {
			return fmt.Errorf("traffic: hotspot port %d out of range", c.HotPort)
		}
	}
	return nil
}

// NoArrival marks an input with no arrival in a slot.
const NoArrival = -1

// Generator produces slot-level arrivals: in each slot, each input port
// independently receives at most one cell, identified by its destination.
type Generator struct {
	cfg Config
	rng *rand.Rand
	// burst state, per input (Bursty only)
	burstDst  []int
	burstLeft []int
	// rotation counter (Permutation only)
	rot int64
	// slot index (Trace only)
	slot int
}

// NewGenerator builds a generator for the configuration.
func NewGenerator(cfg Config) (*Generator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Kind == Permutation && cfg.Load == 0 {
		cfg.Load = 1
	}
	g := &Generator{
		cfg: cfg,
		rng: rand.New(rand.NewPCG(cfg.Seed, 0x9e3779b97f4a7c15)),
	}
	if cfg.Kind == Bursty {
		g.burstDst = make([]int, cfg.N)
		g.burstLeft = make([]int, cfg.N)
		for i := range g.burstDst {
			g.burstDst[i] = NoArrival
		}
	}
	return g, nil
}

// N returns the port count.
func (g *Generator) N() int { return g.cfg.N }

// Step fills dst (length N) with this slot's arrivals: dst[i] is the
// destination of the cell arriving at input i, or NoArrival. It returns the
// number of arrivals.
func (g *Generator) Step(dst []int) int {
	if len(dst) != g.cfg.N {
		panic("traffic: destination slice has wrong length")
	}
	if g.cfg.Kind == Trace {
		n := 0
		for i := range dst {
			dst[i] = NoArrival
			if g.slot < len(g.cfg.Schedule) {
				dst[i] = g.cfg.Schedule[g.slot][i]
			}
			if dst[i] != NoArrival {
				n++
			}
		}
		g.slot++
		return n
	}
	n := 0
	for i := range dst {
		dst[i] = g.next(i)
		if dst[i] != NoArrival {
			n++
		}
	}
	return n
}

func (g *Generator) next(input int) int {
	c := &g.cfg
	switch c.Kind {
	case Bernoulli:
		if g.rng.Float64() < c.Load {
			return g.rng.IntN(c.N)
		}
		return NoArrival
	case Saturation:
		return g.rng.IntN(c.N)
	case Permutation:
		// The rotation advances once per slot; input i targets output
		// (i + rot) mod n, so every slot's active senders form a
		// sub-permutation and no output is oversubscribed.
		if input == 0 {
			g.rot++
		}
		if c.Load < 1 && g.rng.Float64() >= c.Load {
			return NoArrival
		}
		return (input + int(g.rot)) % c.N
	case Hotspot:
		if g.rng.Float64() >= c.Load {
			return NoArrival
		}
		if g.rng.Float64() < c.HotFrac {
			return c.HotPort
		}
		return g.rng.IntN(c.N)
	case Bursty:
		if g.burstLeft[input] > 0 {
			g.burstLeft[input]--
			return g.burstDst[input]
		}
		// Idle: start a new burst with probability q chosen so that the
		// long-run fraction of busy slots is Load. Mean burst B, mean
		// idle 1/q - 1 + 1/q… we use the standard on/off construction:
		// start probability q = Load / (BurstLen·(1-Load) + Load).
		q := c.Load / (c.BurstLen*(1-c.Load) + c.Load)
		if c.Load >= 1 {
			q = 1
		}
		if g.rng.Float64() < q {
			// Geometric length with mean BurstLen (support ≥ 1); this
			// slot delivers the first cell of the burst.
			l := 1
			p := 1 / c.BurstLen
			for g.rng.Float64() >= p {
				l++
			}
			g.burstDst[input] = g.rng.IntN(c.N)
			g.burstLeft[input] = l - 1
			return g.burstDst[input]
		}
		return NoArrival
	default:
		panic("traffic: unknown kind")
	}
}

// CellStream produces cycle-level arrivals for word-serial links: a cell of
// CellLen words occupies CellLen consecutive cycles on its input link; after
// a cell's tail, the link stays idle for a geometrically distributed gap
// sized so the long-run link utilization equals Load. With Load = 1 cells
// are back-to-back. The unconditioned probability of a cell head appearing
// in a given cycle approaches Load/CellLen — the "p/2n" of §3.4. Every
// Kind is supported: Hotspot biases destinations toward HotPort, and
// Bursty emits back-to-back runs of cells (geometric mean BurstLen, one
// destination per burst) separated by idle gaps sized to meet Load.
//
// The draw order is the stream's identity: cycle-major, port-minor, one
// start draw per link that is not mid-cell (a burst's next cell on a link
// that comes free is a head with no draw), then the new cell's own draws.
// Off saturation nearly every one of those draws fails, so after a
// head-free cycle the stream draws ahead — same generator, same order — up
// to the first draw that succeeds, and remembers where (the horizon); the
// cycles before it are answered without touching a port (DESIGN.md §16).
type CellStream struct {
	cfg     Config
	cellLen int
	// pcg is the generator; rng wraps it for the destination draws (IntN).
	pcg pcg
	rng *rand.Rand
	// A start draw succeeds iff its 53 bits are below startThr (threshold of
	// p/(K(1-p)+p), K the busy period: the cell, or the mean burst). hotThr
	// is HotFrac's, contThr 1/BurstLen's.
	startThr, hotThr, contThr uint64
	// draws: a free link draws its start (every kind but Saturation, a
	// full-rate Permutation and Trace).
	draws bool
	// lookIdle is the largest number of idle links after a head-free cycle
	// from which the stream draws ahead; 0 if never (see lookMaxStart).
	lookIdle int
	// now is the index of the next Heads call; freeAt[i] is the first call
	// index at which input i's link is no longer mid-cell (a head may
	// appear only at now ≥ freeAt[i]).
	now    int64
	freeAt []int64
	// none is a head-free vector, what Heads copies out on a dead cycle.
	none []int
	// No head appears before cycle horizon. For the kinds that never fail a
	// start it is the first cycle a link comes free. After a lookahead that
	// ended on a successful draw, hit is the link that drew it (else -1): on
	// the horizon cycle the links before it are head-free, hit starts a
	// cell without drawing again, and the links behind it draw as usual.
	horizon int64
	hit     int
	// After a lookahead pcg has run past cycle now: base is the generator as
	// it stood before cycle baseCycle, and every cycle since has drawn once
	// on each of aheadFree links and changed nothing else, which is what
	// State replays. aheadFree is 0 when pcg is current.
	base      pcg
	baseCycle int64
	aheadFree int
	// per-input cell counter (Permutation, Trace); rot[i] caches
	// (i + sent[i]) mod N — the next permutation destination — so the
	// full-rate path advances it with a wrap test instead of dividing
	// every cell start. Derived state: rebuilt on restore, not exported.
	sent []int64
	rot  []int
	// burst state per input (Bursty only): cells remaining in the current
	// burst beyond the one in transit, and the burst's common destination.
	burstLeft []int
	burstDst  []int
}

// NewCellStream builds a word-granularity stream of cells of cellLen words.
func NewCellStream(cfg Config, cellLen int) (*CellStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cellLen < 1 {
		return nil, fmt.Errorf("traffic: cell length %d, need ≥ 1", cellLen)
	}
	if cfg.Kind == Permutation && cfg.Load == 0 {
		cfg.Load = 1
	}
	s := &CellStream{
		cfg:     cfg,
		cellLen: cellLen,
		pcg:     pcg{cfg.Seed, 0xbf58476d1ce4e5b9},
		freeAt:  make([]int64, cfg.N),
		none:    make([]int, cfg.N),
		hit:     -1,
		sent:    make([]int64, cfg.N),
	}
	s.rng = rand.New(&s.pcg)
	for i := range s.none {
		s.none[i] = NoArrival
	}
	// Start probability on an idle cycle such that the link is busy a
	// fraction Load of the time: q = p/(K(1-p)+p) for a busy period of K
	// cycles; p = 1 gives q = 1 (back-to-back).
	p, busy := cfg.Load, float64(cellLen)
	// looks: a failed start draw changes no other state, so the draws of a
	// gap can be taken ahead of time.
	looks := false
	switch cfg.Kind {
	case Bernoulli, Hotspot:
		s.draws, looks = true, true
		s.hotThr = threshold(cfg.HotFrac)
	case Bursty:
		// The Bernoulli construction with the busy period scaled to the
		// mean burst; burst lengths are geometric with mean BurstLen.
		s.draws, looks = true, true
		busy *= cfg.BurstLen
		s.contThr = threshold(1 / cfg.BurstLen)
		s.burstLeft = make([]int, cfg.N)
		s.burstDst = make([]int, cfg.N)
	case Permutation:
		// Below full rate, cells are thinned with the same idle-gap start
		// probability as Bernoulli streams so the link utilization equals
		// Load — and the rotation advances on a skipped cell, which rules
		// drawing ahead out. Full rate draws nothing.
		s.draws = !(p >= 1)
		s.rot = make([]int, cfg.N)
		for i := range s.rot {
			s.rot[i] = i % cfg.N
		}
	}
	s.startThr = threshold(p / (busy*(1-p) + p))
	if p >= 1 {
		s.startThr = threshold(1)
	}
	if looks {
		s.lookIdle = int(min(lookMaxStart/max(s.startThr, 1), uint64(cfg.N)))
	}
	return s, nil
}

// Extend appends schedule slots to a Trace stream: rows[s][i] is the
// destination arriving at input i in the s-th appended cell time, or
// NoArrival. The session server streams externally injected cells in
// through this seam — a Trace stream that has run past the end of its
// schedule simply goes idle, and appended rows are consumed from the
// point each input's slot cursor has reached. Rows are validated like
// Config.Validate validates the initial schedule; on error nothing is
// appended.
func (s *CellStream) Extend(rows [][]int) error {
	if s.cfg.Kind != Trace {
		return fmt.Errorf("traffic: Extend needs a trace stream, not %v", s.cfg.Kind)
	}
	base := len(s.cfg.Schedule)
	for r, row := range rows {
		if len(row) != s.cfg.N {
			return fmt.Errorf("traffic: trace slot %d has %d entries, want %d", base+r, len(row), s.cfg.N)
		}
		for i, d := range row {
			if d != NoArrival && (d < 0 || d >= s.cfg.N) {
				return fmt.Errorf("traffic: trace slot %d input %d: destination %d out of range", base+r, i, d)
			}
		}
	}
	s.cfg.Schedule = append(s.cfg.Schedule, rows...)
	// An input that had run out of slots has them again.
	s.horizon = 0
	return nil
}

// Schedule returns the stream's current schedule (Trace only; nil
// otherwise). The checkpoint layer snapshots it so mid-run Extend calls
// survive restore.
func (s *CellStream) Schedule() [][]int { return s.cfg.Schedule }

// rotAdv advances input i's cached permutation destination by one,
// mirroring sent[i]++ in (i + sent[i]) mod N.
func (s *CellStream) rotAdv(i int) {
	if r := s.rot[i] + 1; r == s.cfg.N {
		s.rot[i] = 0
	} else {
		s.rot[i] = r
	}
}

// SkipDead reports whether the coming cycle is already known to carry no
// head, and if so consumes it — Heads without the vector, for a driver that
// reads the vector only when there is a head in it.
func (s *CellStream) SkipDead() bool {
	if s.now < s.horizon {
		s.now++
		return true
	}
	return false
}

// Heads fills dst (length N) with the destinations of cell heads appearing
// in this cycle (NoArrival where no head appears) and returns the number of
// heads. A head can appear only on a link that is not mid-cell.
func (s *CellStream) Heads(dst []int) int {
	// The dead-cycle path stays free of the length panic's call frame (the
	// port loop raises it): this is the path a sparse run takes 97% of the
	// time, and it measured 15% slower with the panic in this function.
	if len(dst) == s.cfg.N && s.now < s.horizon {
		s.now++
		copy(dst, s.none)
		return 0
	}
	n, idle, busyEnd := s.cycle(dst)
	if uint(idle-1) < uint(s.lookIdle) && n == 0 && busyEnd > s.now {
		s.lookahead(idle, busyEnd)
	}
	return n
}

// cycle is Heads on a cycle that may carry a head: the port loop.
func (s *CellStream) cycle(dst []int) (n, idle int, busyEnd int64) {
	if len(dst) != s.cfg.N {
		panic("traffic: destination slice has wrong length")
	}
	now := s.now
	s.now++
	s.aheadFree = 0
	// The port loop also finds what decides the next horizon: busyEnd, the
	// first cycle a link that is mid-cell after this one comes free, and
	// idle, the number of links that stay free — on those a head may appear
	// as soon as the next cycle. A Trace input whose schedule has run out
	// is neither.
	end := now + int64(s.cellLen)
	busyEnd = math.MaxInt64
	// After a lookahead that ended on a successful draw this is its cycle
	// and hit its link: a free link before it drew then and failed, and
	// hit itself — idle, or the lookahead would have stopped earlier —
	// starts a cell without drawing again.
	hit := s.hit
	s.hit = -1
	g := s.pcg // in registers across the loop's failed draws
	for i := range dst {
		dst[i] = NoArrival
		if at := s.freeAt[i]; at > now {
			busyEnd = min(busyEnd, at)
			continue
		}
		if i < hit {
			idle++
			continue
		}
		switch s.cfg.Kind {
		case Trace:
			// One schedule slot per cell time and per input: an entry
			// either starts a cell or leaves the link idle for a full
			// cell time, mirroring Generator's slot-level semantics.
			if slot := int(s.sent[i]); slot < len(s.cfg.Schedule) {
				s.sent[i]++
				s.freeAt[i] = end
				busyEnd = min(busyEnd, end)
				if d := s.cfg.Schedule[slot][i]; d != NoArrival {
					dst[i] = d
					n++
				}
			}
			continue
		case Bursty:
			// Mid-burst: the next cell follows back-to-back on the same
			// destination, so a burst occupies BurstLen·K contiguous
			// cycles on average.
			if s.burstLeft[i] > 0 {
				s.burstLeft[i]--
				dst[i] = s.burstDst[i]
				s.freeAt[i] = end
				n++
				continue
			}
		}
		if i != hit && s.draws && g.Uint64()&draw53 >= s.startThr {
			idle++
			if s.rot != nil {
				// A thinned permutation's rotation advances even for the
				// cells it skips.
				s.sent[i]++
				s.rotAdv(i)
			}
			continue
		}
		s.pcg = g
		dst[i] = s.begin(i)
		g = s.pcg
		s.freeAt[i] = end
		n++
	}
	s.pcg = g
	switch {
	case idle > 0:
		s.horizon = s.now
	case n > 0:
		s.horizon = min(busyEnd, end)
	default:
		s.horizon = busyEnd
	}
	return n, idle, busyEnd
}

// begin starts a cell on input i — the start itself is decided — and
// returns its destination.
func (s *CellStream) begin(i int) int {
	switch s.cfg.Kind {
	case Permutation:
		// At full rate all inputs run in cell-time lockstep: input i's
		// t-th cell targets (i+t) mod n, a fresh permutation per cell
		// time — admissible traffic that never oversubscribes an output.
		d := s.rot[i]
		s.sent[i]++
		s.rotAdv(i)
		return d
	case Hotspot:
		if s.pcg.Uint64()&draw53 < s.hotThr {
			return s.cfg.HotPort
		}
	case Bursty:
		// This cycle starts the burst's first cell; every further draw at
		// or above 1/BurstLen adds one more.
		more := 0
		for s.pcg.Uint64()&draw53 >= s.contThr {
			more++
		}
		s.burstDst[i] = s.rng.IntN(s.cfg.N)
		s.burstLeft[i] = more
		return s.burstDst[i]
	}
	return s.rng.IntN(s.cfg.N)
}

const (
	// lookDraws bounds one lookahead: a stream that almost never starts a
	// cell gives up after this many draws and resumes from there on a later
	// call.
	lookDraws = 4096
	// lookMaxStart is the entry rule, in threshold units: the stream draws
	// ahead only when the idle links between them are expected to start at
	// most a sixth of a cell in the next cycle (links × start probability),
	// i.e. when the gap ahead is probably several cycles long. A lookahead
	// that skips a cycle or two costs more than the port loop it replaces
	// (measured: DESIGN.md §16); both sides of the rule depend on the stream
	// alone.
	lookMaxStart = 1 << 53 / 6
)

// lookahead runs after a head-free cycle that left free links idle, next
// being the first cycle another link comes free. Until then the set of free
// links does not change, so the coming cycles' start draws are one flat run
// — cycle-major, link-minor — and lookahead consumes it up to and including
// the first draw that succeeds. It stops at next either way: the port loop
// takes the cycle a link comes free, and calls again.
func (s *CellStream) lookahead(free int, next int64) {
	c := s.now
	s.base, s.baseCycle, s.aheadFree = s.pcg, c, free
	cycles := int64(lookDraws>>bits.Len(uint(free)) | 1)
	if next-c < cycles {
		cycles = next - c
	}
	s.horizon = c + cycles
	run := free * int(cycles)
	d := s.pcg.firstBelow(s.startThr, run)
	if d == run {
		return
	}
	// Draw d is cycle d/free's, on the (d mod free)-th free link.
	q := d / free
	s.horizon = c + int64(q)
	for i, skip := 0, d-q*free; ; i++ {
		if s.freeAt[i] <= c {
			if skip == 0 {
				s.hit = i
				return
			}
			skip--
		}
	}
}

// StreamState is the exported state of a CellStream, sufficient — together
// with the stream's Config and cell length — to resume the arrival process
// bit for bit. RNG is the marshaled PCG state.
type StreamState struct {
	RNG       []byte
	Busy      []int
	Sent      []int64
	BurstLeft []int `json:",omitempty"`
	BurstDst  []int `json:",omitempty"`
}

// State exports the stream for checkpointing, as it stands before cycle
// now. The serialized Busy field keeps its original per-input countdown
// form (remaining mid-cell cycles), derived from the absolute busy
// intervals the stream tracks. Mid-lookahead the generator has run past
// now; the exported one is rebuilt from where the lookahead began, moved on
// by the draws of the cycles since — one on each of aheadFree links per
// cycle — so a checkpoint does not depend on how far ahead the stream
// happened to have drawn.
func (s *CellStream) State() (*StreamState, error) {
	g := s.pcg
	if s.aheadFree > 0 {
		g = s.base
		g.advance(jumpBy(uint64(s.aheadFree) * uint64(s.now-s.baseCycle)))
	}
	busy := make([]int, s.cfg.N)
	for i, f := range s.freeAt {
		if rem := f - s.now; rem > 0 {
			busy[i] = int(rem)
		}
	}
	st := &StreamState{
		RNG:  g.MarshalBinary(),
		Busy: busy,
		Sent: append([]int64(nil), s.sent...),
	}
	if s.burstLeft != nil {
		st.BurstLeft = append([]int(nil), s.burstLeft...)
		st.BurstDst = append([]int(nil), s.burstDst...)
	}
	return st, nil
}

// RestoreCellStream rebuilds a stream from a checkpointed state. cfg and
// cellLen must match the values the stream was built with (the state does
// not carry them; the checkpoint layer stores them alongside). A state no
// stream could have exported — it comes from a file — is an error here, not
// a panic some cycles into the run.
func RestoreCellStream(cfg Config, cellLen int, st *StreamState) (*CellStream, error) {
	s, err := NewCellStream(cfg, cellLen)
	if err != nil {
		return nil, err
	}
	if len(st.Busy) != cfg.N || len(st.Sent) != cfg.N {
		return nil, fmt.Errorf("traffic: stream state sized for %d/%d inputs, config has %d", len(st.Busy), len(st.Sent), cfg.N)
	}
	if err := s.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("traffic: restore PCG: %w", err)
	}
	for i, b := range st.Busy {
		if b < 0 || b > cellLen {
			return nil, fmt.Errorf("traffic: stream state input %d: %d busy cycles left of a %d-cycle cell", i, b, cellLen)
		}
		if st.Sent[i] < 0 {
			return nil, fmt.Errorf("traffic: stream state input %d: %d cells sent", i, st.Sent[i])
		}
		s.freeAt[i] = int64(b) // s.now restarts at 0
	}
	copy(s.sent, st.Sent)
	if cfg.Kind == Permutation {
		for i := range s.rot {
			s.rot[i] = (i + int(s.sent[i]%int64(cfg.N))) % cfg.N
		}
	}
	if cfg.Kind == Bursty {
		if len(st.BurstLeft) != cfg.N || len(st.BurstDst) != cfg.N {
			return nil, fmt.Errorf("traffic: bursty stream state missing burst arrays for %d inputs", cfg.N)
		}
		for i, left := range st.BurstLeft {
			if left < 0 {
				return nil, fmt.Errorf("traffic: stream state input %d: %d cells left in its burst", i, left)
			}
			if d := st.BurstDst[i]; left > 0 && (d < 0 || d >= cfg.N) {
				return nil, fmt.Errorf("traffic: stream state input %d: burst destination %d out of range", i, d)
			}
		}
		copy(s.burstLeft, st.BurstLeft)
		copy(s.burstDst, st.BurstDst)
	}
	return s, nil
}
