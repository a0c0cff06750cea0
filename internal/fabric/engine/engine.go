// Package engine is the multistage net: a mesh of cycle-accurate
// core.Switch nodes wired by a Topology, chained cut-through via the
// per-node transmit hooks, credit-based flow control on every inter-stage
// link — and the ability to tick every node of every stage in parallel
// across a worker pool while staying bit-identical to the sequential
// reference. internal/fabric (k-ary butterfly) and internal/clos
// (three-stage Clos) contribute a Topology each and nothing else: terminal
// injection, loss and integrity accounting, metrics, tracing, auditing and
// the traffic-driven Run are written here once, for both.
//
// # Determinism under parallelism
//
// Within one cycle the nodes are data-independent: inter-stage traffic
// moves only through the transmit hooks into a cycle-indexed injection
// ring (a head booked at cycle c is latched downstream at c+2, one wire
// register after it appears on the link), so no node reads another node's
// cycle-c work. The only cross-node state is the credit array, and its
// accesses factor cleanly:
//
//   - decrements (taking a credit on the downstream link) happen only in
//     the one upstream node that owns the link, whose own output gate the
//     1→0 edge closes — node-local, no contention;
//   - increments (releasing the inbound link when a cell leaves a stage-t
//     node) only ever matter to a stage t-1 gate, which the sequential
//     engine runs earlier in the same cycle — so a release is first
//     observable one cycle later no matter what.
//
// Deferring every release to the end-of-cycle barrier therefore preserves
// every level any gate ever presents, and the whole fabric ticks in a
// single parallel region per cycle — one barrier, not one per stage. The
// gates are pushed levels (core.Switch.SetOutputOpen): a 0→1 edge reopens
// the upstream output, found through up[], from the barrier — the one
// write to a node another shard owns, legal because every worker is parked.
// Everything order-sensitive (latency histogram adds are float sums,
// ejection verification, error surfacing) is staged per shard and merged
// at the barrier in ascending node order, exactly the order the
// sequential engine produces; the outcome is independent of the worker
// count, which the equivalence tests verify bit for bit.
//
// # Zero-allocation steady state
//
// The per-cycle loop allocates nothing once warm: head arrivals live in a
// preallocated ring of 4 cycle slots × (node, port) (transmit hooks book
// at +2, injections at +0), per-cell bookkeeping lives in a slab of flight
// records whose handles the cells carry (cell.Cell.Tag), and quiescent
// nodes are skipped entirely via occupancy bitmaps, catching up through
// core.TickN's event-driven fast-forward when traffic returns. A cell is one object for its whole
// flight: Inject draws it from the inject pool, each interior transmit hook
// forwards that same cell into the downstream ring slot (the cut-through
// of §3.3 passes on the cell a node starts on its link), and it returns to
// the pool only at ejection or when a node drops it. Interior nodes run
// with lean departures, so they build and drain nothing, and a lean node
// never reads a cell after the Tick that ran its transmit hook: the pool's
// idle cells are the engine's alone. The last stage ejects through each
// node's departure sink (core.DepartureSink), which stages the cell, its
// output, its head's two cycles and the node's word compare by value for
// the barrier's verification; no node builds a Departure or is drained.
package engine

import (
	"fmt"
	"math"
	"math/bits"
	"runtime"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/stats"
)

// Topology describes a multistage network to the engine: uniform-radix
// stages, a wiring function, per-stage routing digits, and the terminal
// maps at the edges. Implementations must be pure (the engine precomputes
// flat tables from them at construction).
type Topology interface {
	// Stages returns the stage count s ≥ 2.
	Stages() int
	// NodesAt returns the switch count of a stage.
	NodesAt(stage int) int
	// Radix returns the uniform port count of every node.
	Radix() int
	// Terminals returns the external terminal count.
	Terminals() int
	// Downstream maps (stage, node, out) to the next stage's (node,
	// port), both stage-local, for stage < Stages()-1. (-1, -1) marks an
	// output that must never carry traffic (e.g. an unpopulated Clos
	// middle); the engine gates it off.
	Downstream(stage, node, out int) (int, int)
	// RouteDst returns the output port a cell for terminal dst requests
	// at a node of the given stage. A negative answer at stage 0 leaves
	// the first hop free (the Clos middle choice): the engine then deals
	// out each ingress node's routable outputs in turn, in ascending
	// order.
	RouteDst(stage, dst int) int
	// InjectPoint maps a terminal to its stage-0 (node, port).
	InjectPoint(term int) (int, int)
	// EjectTerminal maps a last-stage (node, out) to the terminal served.
	EjectTerminal(node, out int) int
}

// Config parameterizes the engine.
type Config struct {
	Topo Topology
	// WordBits is the link width.
	WordBits int
	// SwitchCells is each node's buffer capacity in cells.
	SwitchCells int
	// Credits is the per-inter-stage-link credit allowance (0 disables
	// flow control).
	Credits int
	// CutThrough enables automatic cut-through in every node.
	CutThrough bool
	// Policy optionally names a bufmgr admission policy (spec grammar
	// name:key=val) installed on every node. Malformed specs fail New
	// with an error wrapping bufmgr.ErrBadConfig.
	Policy string
	// Workers is the shard count ticking the fabric in parallel
	// (0 = GOMAXPROCS, clamped to the fabric's bitmap word count so tiny
	// nets do not spin idle goroutines). 1 runs inline on the caller.
	Workers int
}

// Validate reports whether New would build the net, before anything
// proportional to its size is allocated.
func (c Config) Validate() error {
	_, err := c.check()
	return err
}

// check is Validate; New keeps the parsed policy.
func (c Config) check() (bufmgr.Policy, error) {
	t := c.Topo
	if t == nil {
		return nil, fmt.Errorf("engine: nil topology")
	}
	s, k := t.Stages(), t.Radix()
	if s < 2 || k < 2 {
		return nil, fmt.Errorf("engine: %d stages of radix %d", s, k)
	}
	if c.SwitchCells < 1 {
		return nil, fmt.Errorf("engine: %d cells per switch", c.SwitchCells)
	}
	if c.Workers < 0 {
		return nil, fmt.Errorf("engine: negative workers")
	}
	// Packed node·radix+port indices, terminal numbers and credit counts
	// all live in int32 tables.
	if c.Credits < 0 || c.Credits > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d credits per link", c.Credits)
	}
	nodes := 0
	for st := 0; st < s; st++ {
		n := t.NodesAt(st)
		if n < 1 || n > math.MaxInt32/k-nodes {
			return nil, fmt.Errorf("engine: %d radix-%d nodes at stage %d: the net's port indices would not fit int32", n, k, st)
		}
		nodes += n
	}
	if n := t.Terminals(); n < 1 || n > math.MaxInt32 {
		return nil, fmt.Errorf("engine: %d terminals", n)
	}
	if c.Policy == "" {
		return nil, nil
	}
	pol, err := bufmgr.Parse(c.Policy)
	if err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	return pol, nil
}

// Engine is the sharded multistage net (fabric.Net and clos.Net are this
// type). It is not safe for concurrent use by multiple callers; one
// goroutine drives Inject/Step and the engine fans the per-cycle work out
// internally.
type Engine struct {
	topo     Topology
	stages   int
	k        int // radix (ports per node)
	cellK    int // words per cell (2·radix)
	wordBits int
	creditOn bool
	maxCred  int32

	cycle int64

	nodes []*core.Switch // flat, stage-major
	base  []int          // base[stage] = global index of the stage's node 0
	last  int            // base of the last stage

	// down maps packed (node, out) to the packed downstream (node, port)
	// — which is simultaneously the ring index the hop cell lands at and
	// the credit slot the hop consumes. -1 marks outputs with no
	// downstream (last-stage ejects, unpopulated middles).
	down []int32
	// up is down's inverse: packed downstream (node, port) to the packed
	// upstream (node, out) feeding it, -1 for terminal injection ports.
	up []int32
	// credits[g*k+port] is the allowance of the link INTO node g's port.
	credits []int32
	// route[t][dst] is the output digit requested at stage t; negative at
	// stage 0 where the topology leaves the first hop free, and then
	// next[g] is the output ingress node g tries first for its next cell.
	route [][]int32
	next  []int32
	// ejectTerm maps packed last-stage (local node, out) to terminals.
	ejectTerm []int32
	// injIdx maps terminals to their packed stage-0 (node, port).
	injIdx []int32

	// ring[c&3][g*k+port] holds the head cell arriving at that input in
	// cycle c. Hooks book at +2, Inject at +0; depth 4 covers both with
	// room to detect stragglers as duplicates rather than overwrites.
	ring [4][]*cell.Cell
	// mask[c&3] is the per-node has-arrivals bitmap for cycle c
	// (injections set it directly; hook arrivals merge in via the shard
	// staging masks at the barrier).
	mask [4][]uint64
	// busy marks nodes that were not quiescent after their last tick.
	// busy ∪ mask[cycle&3] is the set ticked this cycle; everyone else is
	// skipped and caught up later with TickN's O(1) fast-forward.
	busy []uint64

	// injPool is the coordinator's: Inject draws, ejection and drop
	// retirement return.
	injPool *cell.Pool

	flights flightSlab
	lastSeq uint64     // the last sequence number injected
	scratch *cell.Cell // eject-verification payload regeneration

	// arrivals counts heads consumed per node (by the owning shard) —
	// per-element forwarding load, e.g. Clos middle balance.
	arrivals []int64

	nw     int
	shards []shard
	bar    barrier
	closed bool

	injected, delivered, badEject int64
	// dropped counts flights retired as lost, in every loss mode (overrun,
	// policy refusal, push-out); interiorDropped those lost at stages ≥ 1.
	dropped, interiorDropped int64
	latency                  *stats.Hist
	pendErr                  error
	heads                    []int // Drive's per-terminal head vector

	met *metrics

	// Flight tracing / telemetry / profiling — see trace.go. flightObs
	// gates the per-arrival flight-record update (depth) and the hop
	// latencies that span tracing and the hop-latency histograms consume.
	trace      *obs.Tracer
	traceEvery uint64
	flightObs  bool
	hopHists   []*obs.Histogram
	ts         *obs.TimeSeries
	tsEvery    int64
	prof       *StepProf
}

// New builds the engine (and starts its worker pool when Workers > 1).
// Callers that request Workers > 1 must Close the engine when done.
func New(cfg Config) (*Engine, error) {
	pol, err := cfg.check()
	if err != nil {
		return nil, err
	}
	t := cfg.Topo
	s, k := t.Stages(), t.Radix()
	e := &Engine{
		topo: t, stages: s, k: k, cellK: 2 * k, wordBits: cfg.WordBits,
		creditOn: cfg.Credits > 0, maxCred: int32(cfg.Credits),
		base:    make([]int, s),
		latency: stats.NewHist(1 << 14),
	}
	total := 0
	for st := 0; st < s; st++ {
		e.base[st] = total
		total += t.NodesAt(st)
	}
	e.last = e.base[s-1]
	words := (total + 63) / 64

	e.nodes = make([]*core.Switch, total)
	e.down = make([]int32, total*k)
	e.up = make([]int32, total*k)
	e.credits = make([]int32, total*k)
	e.arrivals = make([]int64, total)
	e.busy = make([]uint64, words)
	for i := range e.ring {
		e.ring[i] = make([]*cell.Cell, total*k)
		e.mask[i] = make([]uint64, words)
	}
	e.injPool = cell.NewPool(e.cellK)
	e.scratch = &cell.Cell{Words: make([]cell.Word, e.cellK)}
	for i := range e.credits {
		e.credits[i] = int32(cfg.Credits)
		e.up[i] = -1
	}

	// Flat topology tables: wiring, routing digits, terminal maps.
	nTerm := t.Terminals()
	e.heads = make([]int, nTerm)
	e.next = make([]int32, t.NodesAt(0))
	e.route = make([][]int32, s)
	for st := 0; st < s; st++ {
		e.route[st] = make([]int32, nTerm)
		for dst := 0; dst < nTerm; dst++ {
			e.route[st][dst] = int32(t.RouteDst(st, dst))
		}
	}
	for st := 0; st < s; st++ {
		cnt := t.NodesAt(st)
		for i := 0; i < cnt; i++ {
			g := e.base[st] + i
			routable := st == s-1
			for out := 0; out < k; out++ {
				e.down[g*k+out] = -1
				if st == s-1 {
					continue
				}
				if dn, dp := t.Downstream(st, i, out); dn >= 0 {
					if dn >= t.NodesAt(st+1) || dp < 0 || dp >= k {
						return nil, fmt.Errorf("engine: downstream(%d,%d,%d) = (%d,%d) out of range", st, i, out, dn, dp)
					}
					d := (e.base[st+1]+dn)*k + dp
					e.down[g*k+out] = int32(d)
					e.up[d] = int32(g*k + out)
					routable = true
				}
			}
			if !routable {
				return nil, fmt.Errorf("engine: stage %d node %d has no downstream link", st, i)
			}
		}
	}
	lastCnt := t.NodesAt(s - 1)
	e.ejectTerm = make([]int32, lastCnt*k)
	for i := 0; i < lastCnt; i++ {
		for out := 0; out < k; out++ {
			e.ejectTerm[i*k+out] = int32(t.EjectTerminal(i, out))
		}
	}
	e.injIdx = make([]int32, nTerm)
	for term := 0; term < nTerm; term++ {
		n0, p0 := t.InjectPoint(term)
		if n0 < 0 || n0 >= t.NodesAt(0) || p0 < 0 || p0 >= k {
			return nil, fmt.Errorf("engine: inject point (%d,%d) for terminal %d out of range", n0, p0, term)
		}
		e.injIdx[term] = int32((e.base[0]+n0)*k + p0)
	}

	// Shards: contiguous word-aligned node ranges, coordinator included.
	nw := cfg.Workers
	if nw == 0 {
		nw = runtime.GOMAXPROCS(0)
	}
	if nw > words {
		nw = words
	}
	if nw < 1 {
		nw = 1
	}
	e.nw = nw
	e.shards = make([]shard, nw)
	for w := 0; w < nw; w++ {
		e.shards[w].lo = w * words / nw
		e.shards[w].hi = (w + 1) * words / nw
		e.shards[w].arr = make([]uint64, words)
	}
	wordOwner := make([]int32, words)
	for w := 0; w < nw; w++ {
		for wi := e.shards[w].lo; wi < e.shards[w].hi; wi++ {
			wordOwner[wi] = int32(w)
		}
	}

	// The nodes, wired with gates and chained-cut-through hooks.
	for st := 0; st < s; st++ {
		for i := 0; i < t.NodesAt(st); i++ {
			g := e.base[st] + i
			sw, err := core.New(core.Config{
				Ports: k, WordBits: cfg.WordBits, Cells: cfg.SwitchCells,
				CutThrough: cfg.CutThrough,
			})
			if err != nil {
				return nil, err
			}
			if pol != nil {
				sw.SetBufferPolicy(pol)
			}
			sh := &e.shards[wordOwner[g>>6]]
			e.installDropHook(sw, g, sh)
			if st < s-1 {
				// An interior departure is only a count: the hook has passed
				// the cell on, and integrity is verified end to end at
				// ejection.
				sw.SetLeanDepartures(true)
				e.installGate(sw, g)
				e.installHook(sw, st, g, sh)
			} else {
				e.installLastHook(sw, g, sh)
			}
			e.nodes[g] = sw
		}
	}
	if nw > 1 {
		e.startWorkers()
	}
	return e, nil
}

// installGate sets the interior output gates' initial levels: an output
// with no downstream link (an unpopulated middle) is closed for good; the
// rest start open on a full credit allowance and follow it from there
// (the transmit hook's 1→0 edge, release's 0→1).
func (e *Engine) installGate(sw *core.Switch, g int) {
	for out := 0; out < e.k; out++ {
		if e.down[g*e.k+out] < 0 {
			sw.SetOutputOpen(out, false)
		}
	}
}

// release returns one credit to link d at the barrier; the 0→1 edge
// reopens the upstream output that feeds it.
func (e *Engine) release(d int32) {
	e.credits[d]++
	if e.credits[d] == 1 {
		u := int(e.up[d])
		e.nodes[u/e.k].SetOutputOpen(u%e.k, true)
	}
}

// installHook wires the interior transmit hook — the chained cut-through
// seam. Booked at wave initiation (head on the wire at start+1), the hop
// cell — the transmitted cell itself, re-addressed to the next route digit —
// is latched into the downstream node's input ring at start+2, while the
// tail is still K-2 cycles from leaving this node.
func (e *Engine) installHook(sw *core.Switch, st, g int, sh *shard) {
	base := int32(g * e.k)
	releases := st > 0 && e.creditOn
	route := e.route[st+1]
	k := uint32(e.k)
	sw.SetTransmitCellHook(func(out int, c *cell.Cell, start int64) {
		fl := &e.flights.recs[c.Tag]
		if fl.seq != c.Seq {
			panic(fmt.Sprintf("engine: transmit of unknown cell seq %d", c.Seq))
		}
		if releases {
			// Deferred to the barrier: see the package comment's
			// determinism argument.
			sh.rel = append(sh.rel, fl.inbound)
		}
		if e.flightObs {
			// Head on the wire at start+1; the switch stamped c.Enqueue
			// when the head arrived here. Staged, not emitted: see trace.go.
			lat := start + 1 - c.Enqueue
			if sh.hop != nil {
				sh.hop[st].Observe(lat)
			}
			if fl.traced {
				sh.spans = append(sh.spans, spanRec{seq: c.Seq, lat: lat,
					node: int32(g), stage: int32(st), depth: fl.depth})
			}
		}
		d := e.down[base+int32(out)]
		if d < 0 {
			panic(fmt.Sprintf("engine: transmit on unroutable output %d of node %d", out, g))
		}
		if e.creditOn {
			if e.credits[d] <= 0 {
				panic(fmt.Sprintf("engine: credit underflow on link %d", d))
			}
			if e.credits[d]--; e.credits[d] == 0 {
				sw.SetOutputOpen(out, false)
			}
		}
		// Forward the cell: this lean node reads nothing of it after this
		// Tick, and the downstream node first touches it at start+2, past a
		// barrier.
		c.Dst = int(route[fl.dst])
		fl.inbound = d
		slot := (start + 2) & 3
		if e.ring[slot][d] != nil {
			sh.fail(fmt.Errorf("engine: two heads on input slot %d in cycle %d", d, start+2))
			return
		}
		e.ring[slot][d] = c
		dg := uint32(d) / k
		sh.arr[dg>>6] |= 1 << (dg & 63)
	})
}

// installLastHook wires the last stage: each departure ejects through the
// node's departure sink, staged for verification at the barrier, and
// leaving the fabric releases the inbound credit.
func (e *Engine) installLastHook(sw *core.Switch, g int, sh *shard) {
	node := int32(g)
	sw.SetDepartureSink(func(c *cell.Cell, out int, headIn, headOut int64, intact bool) {
		sh.ejects = append(sh.ejects, ejectRec{c: c, node: node, out: int32(out), headIn: headIn, headOut: headOut, intact: intact})
	})
	if !e.creditOn {
		return
	}
	sw.SetTransmitCellHook(func(out int, c *cell.Cell, start int64) {
		fl := &e.flights.recs[c.Tag]
		if fl.seq != c.Seq {
			panic(fmt.Sprintf("engine: transmit of unknown cell seq %d", c.Seq))
		}
		sh.rel = append(sh.rel, fl.inbound)
	})
}

// installDropHook wires loss accounting: a cell dropped inside a node
// must retire its flight record (or the table leaks one record per drop
// forever), release the credit it is holding on its inbound link (or the
// link's allowance shrinks permanently with every interior drop), and
// return the cell to the inject pool — the switch keeps no reference it
// reads. All of it is staged and applied at the barrier in shard order,
// keeping the merge deterministic.
func (e *Engine) installDropHook(sw *core.Switch, g int, sh *shard) {
	sw.SetDropCellHook(func(c *cell.Cell) {
		sh.drops = append(sh.drops, dropRec{c: c, node: int32(g)})
	})
}

// Inject offers a cell at terminal term for terminal dst in the current
// cycle. Sequence numbers only increase: seq must exceed the last one
// injected (the first may be any nonzero number), which keeps it unique
// in the net; Step reports any other as an error. The caller must respect
// the word-serial spacing (one head per 2·radix cycles per terminal);
// core.Switch panics otherwise.
func (e *Engine) Inject(term, dst int, seq uint64) {
	var t0 int64
	if e.prof != nil {
		t0 = nowNS()
	}
	if seq <= e.lastSeq {
		e.fail(fmt.Errorf("engine: inject at terminal %d: sequence number %d does not exceed %d (they start at 1 and only increase)", term, seq, e.lastSeq))
		return
	}
	idx := e.injIdx[term]
	slot := e.cycle & 3
	if e.ring[slot][idx] != nil {
		e.fail(fmt.Errorf("engine: two heads injected at terminal %d in cycle %d", term, e.cycle))
		return
	}
	e.lastSeq = seq
	h := e.flights.take(seq)
	fl := &e.flights.recs[h]
	fl.src, fl.dst, fl.inject, fl.inbound = int32(term), int32(dst), e.cycle, idx
	if e.trace != nil && seq%e.traceEvery == 0 {
		fl.traced = true
		e.trace.Emit(obs.Event{Kind: obs.EvInject, Cycle: e.cycle,
			In: int32(term), Out: int32(dst), Addr: idx / int32(e.k), Seq: seq})
	}
	hop := e.route[0][dst]
	if hop < 0 {
		// A free first hop: this ingress node's routable outputs in turn.
		k, g := int32(e.k), idx/int32(e.k)
		hop = e.next[g]
		for e.down[g*k+hop] < 0 {
			hop = (hop + 1) % k
		}
		e.next[g] = (hop + 1) % k
	}
	c := e.injPool.Get()
	cell.Fill(c, seq, term, dst, e.cellK, e.wordBits)
	c.Dst, c.Tag = int(hop), h
	e.ring[slot][idx] = c
	g := uint32(idx) / uint32(e.k)
	e.mask[slot][g>>6] |= 1 << (g & 63)
	e.injected++
	if e.prof != nil {
		e.prof.InjectNS += nowNS() - t0
		e.prof.Injects++
	}
}

func (e *Engine) fail(err error) {
	if e.pendErr == nil {
		e.pendErr = err
	}
}

// Step advances the whole fabric one clock cycle: one parallel region
// over all active nodes of all stages, then the deterministic barrier
// merge. The merge runs in three passes, each covering the shards in
// ascending order — staged hop spans, then credit releases / arrival
// masks / ejection verification, then drop retirement — so every
// externally visible sequence (trace bytes, histogram adds) is the
// sequential engine's ascending-node order at any worker count. The first
// error staged in the cycle (an Inject refused since the last Step
// included) is returned after the clock has advanced, so the caller may
// step on.
func (e *Engine) Step() error {
	var t0 int64
	if e.prof != nil {
		t0 = nowNS()
	}
	e.parallelCycle()
	if e.prof != nil {
		t1 := nowNS()
		e.prof.NodeStepNS += t1 - t0
		t0 = t1
	}

	firstErr := e.pendErr
	e.pendErr = nil
	if e.trace != nil {
		e.flushSpans()
	}
	nslot := (e.cycle + 2) & 3
	nm := e.mask[nslot]
	for w := 0; w < e.nw; w++ {
		sh := &e.shards[w]
		if sh.err != nil {
			if firstErr == nil {
				firstErr = sh.err
			}
			sh.err = nil
		}
		for _, idx := range sh.rel {
			e.release(idx)
		}
		sh.rel = sh.rel[:0]
		for i, v := range sh.arr {
			if v != 0 {
				nm[i] |= v
				sh.arr[i] = 0
			}
		}
		for i := range sh.ejects {
			if err := e.eject(&sh.ejects[i]); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		sh.ejects = sh.ejects[:0]
	}
	for w := 0; w < e.nw; w++ {
		sh := &e.shards[w]
		for di := range sh.drops {
			if err := e.retireDrop(&sh.drops[di]); err != nil && firstErr == nil {
				firstErr = err
			}
			sh.drops[di] = dropRec{}
		}
		sh.drops = sh.drops[:0]
	}
	if e.ts != nil && e.cycle%e.tsEvery == 0 {
		e.sampleTelemetry()
	}
	// The consumed slot's mask was cleared word-by-word inside the
	// shards; its ring entries were nilled right after each Tick.
	if e.prof != nil {
		e.prof.MergeNS += nowNS() - t0
		e.prof.Cycles++
	}
	// Every node has ticked, so the clock advances whatever went wrong: the
	// hop ring and the arrival masks are indexed by it.
	e.cycle++
	return firstErr
}

// runShard ticks the shard's active nodes for the current cycle. Active =
// has arrivals this cycle or was not quiescent after its last tick;
// everyone else is skipped, and a skipped node catches up with TickN(nil,
// gap) — O(1) once drained — before its next real work.
func (e *Engine) runShard(w int) {
	sh := &e.shards[w]
	cyc := e.cycle
	slot := cyc & 3
	cm := e.mask[slot]
	ring := e.ring[slot]
	k := e.k
	for wi := sh.lo; wi < sh.hi; wi++ {
		arrived := cm[wi]
		act := arrived | e.busy[wi]
		if act == 0 {
			continue
		}
		cm[wi] = 0
		newBusy := e.busy[wi]
		gbase := wi << 6
		for act != 0 {
			b := bits.TrailingZeros64(act)
			bit := uint64(1) << b
			act &^= bit
			g := gbase + b
			nd := e.nodes[g]
			if gap := cyc - nd.Cycle(); gap > 0 {
				nd.TickN(nil, gap)
			}
			var heads []*cell.Cell
			if arrived&bit != 0 {
				heads = ring[g*k : g*k+k : g*k+k]
				if e.flightObs {
					// Stamp each arriving flight with the occupancy it found
					// — read back by this node's transmit hook (same shard),
					// so the writes stay shard-local.
					buffered := int32(nd.Buffered())
					for _, h := range heads {
						if h != nil {
							if fl := &e.flights.recs[h.Tag]; fl.seq == h.Seq {
								fl.depth = buffered
							}
						}
					}
				}
			}
			nd.Tick(heads)
			if heads != nil {
				cnt := int64(0)
				for i, h := range heads {
					if h != nil {
						cnt++
						heads[i] = nil
					}
				}
				e.arrivals[g] += cnt
			}
			if nd.Quiescent() {
				newBusy &^= bit
			} else {
				newBusy |= bit
			}
		}
		e.busy[wi] = newBusy
	}
}

// retireDrop settles a cell lost inside a node: the flight record is
// released (so the slab cannot leak one record per drop), the credit the
// cell held on its inbound inter-stage link is released (terminal
// injection at stage 0 holds none), and the victim goes back to the inject
// pool — which is what keeps the steady state allocation-free even under
// sustained drops.
func (e *Engine) retireDrop(dr *dropRec) error {
	c := dr.c
	fl := &e.flights.recs[c.Tag]
	if fl.seq != c.Seq {
		return fmt.Errorf("engine: drop of unknown cell %d at node %d", c.Seq, dr.node)
	}
	e.dropped++
	if int(dr.node) >= e.base[1] {
		e.interiorDropped++
		if e.creditOn {
			e.release(fl.inbound)
		}
	}
	if fl.traced {
		e.trace.Emit(obs.Event{Kind: obs.EvDrop, Cycle: e.cycle,
			In: -1, Out: fl.dst, Addr: dr.node, V: e.cycle - fl.inject, Seq: c.Seq})
	}
	e.flights.release(c.Tag)
	e.injPool.Put(c)
	return nil
}

// eject verifies a cell leaving the last stage: right terminal, the words
// on the last link equal to the cell's (the node's sink compared them), and
// the cell's payload the one regenerated from the flight's (seq, src, dst),
// which is what Inject filled it from. A cell failing either is one
// corrupt ejection.
func (e *Engine) eject(x *ejectRec) error {
	c, g := x.c, int(x.node)
	seq := c.Seq
	fl := &e.flights.recs[c.Tag]
	if fl.seq != seq {
		return fmt.Errorf("engine: ejection of unknown cell %d", seq)
	}
	term := e.ejectTerm[(g-e.last)*e.k+int(x.out)]
	if term != fl.dst {
		return e.reject(c, fmt.Errorf("engine: cell %d for terminal %d ejected at %d", seq, fl.dst, term))
	}
	if !x.intact {
		return e.reject(c, fmt.Errorf("engine: cell %d corrupted leaving node %d", seq, g))
	}
	cell.Fill(e.scratch, seq, int(fl.src), int(fl.dst), e.cellK, e.wordBits)
	for i, w := range c.Words {
		if w != e.scratch.Words[i] {
			return e.reject(c, fmt.Errorf("engine: cell %d corrupted at word %d", seq, i))
		}
	}
	e.delivered++
	e.latency.Add(x.headOut - fl.inject)
	if e.flightObs {
		// The last stage has no interior transmit hook; close out its hop
		// and the whole flight here (coordinator side, node order).
		hop := x.headOut - x.headIn
		if e.hopHists != nil {
			e.hopHists[e.stages-1].Observe(hop)
		}
		if fl.traced {
			e.trace.Emit(obs.Event{Kind: obs.EvHop, Cycle: e.cycle,
				In: int32(e.stages - 1), Out: fl.depth, Addr: int32(g),
				V: hop, Seq: seq})
			e.trace.Emit(obs.Event{Kind: obs.EvEject, Cycle: e.cycle,
				In: term, Out: -1, Addr: int32(g), V: x.headOut - fl.inject, Seq: seq})
		}
	}
	e.flights.release(c.Tag)
	e.injPool.Put(c)
	return nil
}

// reject books a bad ejection and returns err: the cell has left the
// fabric all the same, so its flight retires and the cell goes back to the
// pool, as a delivered one's does.
func (e *Engine) reject(c *cell.Cell, err error) error {
	e.badEject++
	e.flights.release(c.Tag)
	e.injPool.Put(c)
	return err
}

// Cycle returns the current global cycle.
func (e *Engine) Cycle() int64 { return e.cycle }

// Injected returns cells offered at the terminals.
func (e *Engine) Injected() int64 { return e.injected }

// Delivered returns end-to-end delivered cells.
func (e *Engine) Delivered() int64 { return e.delivered }

// Drops returns cells lost inside the fabric, in every loss mode (flights
// retired by the drop hook); Injected = Delivered + Drops + Corrupt +
// InFlight at all times. Terminal injection is not credit-protected (the
// hosts, not the fabric, decide how hard to push), so stage 0 overruns
// under overload.
func (e *Engine) Drops() int64 { return e.dropped }

// InteriorDrops returns the drops at stages ≥ 1, whose inputs are the
// credit-protected links. Under complete sharing with credits on and
// SwitchCells ≥ radix × credits it is zero; an admission policy may still
// refuse a cell that holds a credit.
func (e *Engine) InteriorDrops() int64 { return e.interiorDropped }

// Corrupt returns the ejections that failed verification — misrouted, or
// with words that differ from the injected cell's — each cell counted once
// (must be 0). Interior nodes compare nothing (lean departures), and a
// last-stage node's own Counts.Corrupt counts its corrupted departures,
// which are these ejections again.
func (e *Engine) Corrupt() int64 { return e.badEject }

// InFlight returns cells injected and neither delivered nor dropped yet.
func (e *Engine) InFlight() int { return e.flights.n }

// Latency returns the inject→head-ejection histogram in cycles.
func (e *Engine) Latency() *stats.Hist { return e.latency }

// LatencyOverflow returns end-to-end latency samples that exceeded the
// histogram range and were only counted, not binned. A nonzero value
// means MeanLatency/quantiles silently understate the tail; Audit fails
// on it.
func (e *Engine) LatencyOverflow() int64 { return e.latency.Overflow() }

// CellWords returns the cell size in words (2·radix).
func (e *Engine) CellWords() int { return e.cellK }

// Stages returns the number of switching stages.
func (e *Engine) Stages() int { return e.stages }

// Terminals returns the external terminal count.
func (e *Engine) Terminals() int { return len(e.injIdx) }

// Engine returns e. The frozen benchmark reaches the profiling hooks
// through f.Engine(), from when fabric.Net wrapped the engine.
func (e *Engine) Engine() *Engine { return e }

// Workers returns the resolved shard count.
func (e *Engine) Workers() int { return e.nw }

// NodeAt returns the switch at (stage, i).
func (e *Engine) NodeAt(stage, i int) *core.Switch { return e.nodes[e.base[stage]+i] }

// ArrivalsAt returns per-node head-arrival counts for one stage (a copy):
// the per-element forwarding load.
func (e *Engine) ArrivalsAt(stage int) []int64 {
	lo := e.base[stage]
	return append([]int64(nil), e.arrivals[lo:lo+e.topo.NodesAt(stage)]...)
}

// MiddleLoad returns the cells routed through each stage-1 node: in a
// three-stage Clos, the balance across the populated middles.
func (e *Engine) MiddleLoad() []int64 { return e.ArrivalsAt(1) }

// CreditState returns the packed per-link credit array (a copy) — the
// equivalence tests compare it across worker counts.
func (e *Engine) CreditState() []int32 {
	return append([]int32(nil), e.credits...)
}

// Audit runs the engine's conservation-style checks: per-node switch
// invariants (occupancy, refcounts, per-switch conservation), credit
// bounds, fabric-level integrity, and — same failure class as truncated
// cut-latency quantiles — a latency histogram that silently overflowed.
func (e *Engine) Audit() error {
	if ovf := e.latency.Overflow(); ovf > 0 {
		return fmt.Errorf("engine: %d latency samples ≥ %d cycles overflowed the histogram (tail statistics are truncated)", ovf, e.latency.Limit())
	}
	if inFlight := int64(e.flights.n); e.injected != e.delivered+e.dropped+e.badEject+inFlight {
		return fmt.Errorf("engine: cell conservation violated: injected %d ≠ delivered %d + dropped %d + bad ejections %d + in-flight %d",
			e.injected, e.delivered, e.dropped, e.badEject, inFlight)
	}
	if e.badEject > 0 {
		return fmt.Errorf("engine: %d corrupt or misrouted ejections", e.badEject)
	}
	if e.creditOn {
		for i, c := range e.credits {
			if c < 0 || c > e.maxCred {
				return fmt.Errorf("engine: credit slot %d holds %d of %d", i, c, e.maxCred)
			}
		}
	}
	for g, nd := range e.nodes {
		if err := nd.AuditInvariants(); err != nil {
			return fmt.Errorf("engine: node %d: %w", g, err)
		}
		// Interior gate levels mirror the credit state they were pushed
		// from: open ⇔ routable ∧ (no flow control ∨ a credit in hand).
		for out := 0; out < e.k && g < e.last; out++ {
			d := e.down[g*e.k+out]
			want := d >= 0 && (!e.creditOn || e.credits[d] > 0)
			if nd.OutputOpen(out) != want {
				return fmt.Errorf("engine: node %d output %d gate open=%v, but its credit state says %v", g, out, !want, want)
			}
		}
	}
	return nil
}
