package engine

import (
	"fmt"
	"time"

	"pipemem/internal/core"
	"pipemem/internal/obs"
)

// Flight tracing, fixed-cadence telemetry and the step-phase profiler.
// All three are disabled by default and each costs exactly one branch per
// instrumented site when off, preserving the engine's zero-allocation
// steady state (verified by TestStepZeroAlloc).
//
// # Determinism of the trace stream
//
// Span events must serialize identically at every worker count, so hop
// records follow the same discipline as every other cross-shard effect:
// transmit hooks stage them in the owning shard (appended in ascending
// node order, the shard's tick order), and the coordinator drains the
// shard buffers in shard order at the end-of-cycle barrier. Shards own
// ascending node ranges, so the concatenation is ascending global node
// order — exactly the order the sequential engine emits. The canonical
// per-cycle order is: hop spans (node order), then ejections (node
// order), then drops (node order); Step applies the three merge passes
// in that order for the same reason.

// spanRec is one staged hop record: a traced cell's head left a node.
type spanRec struct {
	seq   uint64
	lat   int64 // head arrival at the node → head on the outgoing link
	node  int32
	stage int32
	depth int32 // node's buffered-cell count when the head was admitted
}

// SetFlightTrace enables flight tracing: every cell whose sequence number
// is divisible by sample gets a span trail — EvInject at the terminal,
// EvHop per node crossed (with queue depth at admission and hop latency),
// EvEject (or a seq-carrying EvDrop) at the end — emitted through tr.
// Sampling by sequence number is deterministic: which flights are traced
// depends only on the injected workload, never on execution order, so the
// trace stream is byte-identical at every worker count. Call before the
// first Step; a nil tracer disables tracing again.
func (e *Engine) SetFlightTrace(tr *obs.Tracer, sample int) error {
	if tr != nil && sample < 1 {
		return fmt.Errorf("engine: flight-trace sample %d (want ≥ 1)", sample)
	}
	e.trace = tr
	e.traceEvery = uint64(sample)
	e.flightObs = tr != nil || e.hopHists != nil
	return nil
}

// RegisterHopHists pre-registers per-stage hop-latency histograms
// (head arrival at a node → head on the outgoing link, in cycles) on reg
// and starts feeding them for every cell, traced or not. The shadows are
// shard-local plain counters flushed by the coordinator in SyncMetrics,
// so the hot path never touches an atomic.
func (e *Engine) RegisterHopHists(reg *obs.Registry, prefix string) {
	bounds := obs.ExpBounds(4, 2, 12)
	e.hopHists = make([]*obs.Histogram, e.stages)
	for st := 0; st < e.stages; st++ {
		e.hopHists[st] = reg.Histogram(
			fmt.Sprintf("%s_stage%d_hop_latency_cycles", prefix, st),
			fmt.Sprintf("per-hop latency through stage-%d nodes in cycles", st),
			bounds)
	}
	for w := range e.shards {
		sh := &e.shards[w]
		sh.hop = make([]*obs.HistShadow, e.stages)
		for st := 0; st < e.stages; st++ {
			sh.hop[st] = obs.NewHistShadow(e.hopHists[st])
		}
	}
	e.flightObs = true
}

// flushHopHists publishes the shard-local hop-latency shadows into the
// registered histograms (coordinator only, between cycles).
func (e *Engine) flushHopHists() {
	for w := range e.shards {
		for _, s := range e.shards[w].hop {
			s.Flush()
		}
	}
}

// flushSpans drains the staged hop records into the tracer in shard
// order = ascending global node order (see the determinism note above).
func (e *Engine) flushSpans() {
	for w := 0; w < e.nw; w++ {
		sh := &e.shards[w]
		for i := range sh.spans {
			sp := &sh.spans[i]
			e.trace.Emit(obs.Event{Kind: obs.EvHop, Cycle: e.cycle,
				In: sp.stage, Out: sp.depth, Addr: sp.node, V: sp.lat, Seq: sp.seq})
			sh.spans[i] = spanRec{}
		}
		sh.spans = sh.spans[:0]
	}
}

// EnableTelemetry attaches a bounded time-series ring sampled every
// `every` cycles at the end-of-cycle barrier: per stage the total
// buffered-cell occupancy, the deepest single node, and the available
// inbound credits, plus the fabric-wide in-flight count. Returns the
// ring for export (obs.TimeSeries.WriteJSONL). ringCap ≤ 0 picks the
// TimeSeries default.
func (e *Engine) EnableTelemetry(ringCap int, every int64) *obs.TimeSeries {
	if every < 1 {
		every = 1
	}
	names := make([]string, 0, 3*e.stages+1)
	for st := 0; st < e.stages; st++ {
		names = append(names,
			fmt.Sprintf("s%d_buffered", st),
			fmt.Sprintf("s%d_maxq", st),
			fmt.Sprintf("s%d_credits", st))
	}
	names = append(names, "inflight")
	e.ts = obs.NewTimeSeries(ringCap, names...)
	e.tsEvery = every
	return e.ts
}

func (e *Engine) sampleTelemetry() {
	row := e.ts.Sample(e.cycle)
	k := e.k
	for st := 0; st < e.stages; st++ {
		lo := e.base[st]
		hi := lo + e.topo.NodesAt(st)
		var sum, maxq int64
		for g := lo; g < hi; g++ {
			b := int64(e.nodes[g].Buffered())
			sum += b
			if b > maxq {
				maxq = b
			}
		}
		var cred int64
		for i := lo * k; i < hi*k; i++ {
			cred += int64(e.credits[i])
		}
		row[3*st+0], row[3*st+1], row[3*st+2] = sum, maxq, cred
	}
	row[3*e.stages] = int64(e.flights.n)
}

// StepProf attributes wall time inside the engine's cycle loop: the
// parallel node-step region, the coordinator's barrier merge, and the
// Inject path. Attach with SetStepProf; the engine adds into the struct
// with plain stores (single-writer, read it between Steps).
type StepProf struct {
	// NodeStepNS is time inside the parallel region (all shards ticking
	// their nodes), per the coordinator's clock.
	NodeStepNS int64
	// MergeNS is time in the end-of-cycle barrier merge (credit releases,
	// mask ORs, trace flush, ejection verification, drop retirement,
	// telemetry sampling).
	MergeNS int64
	// InjectNS is time inside Engine.Inject calls.
	InjectNS int64
	// Cycles and Injects count the attributed operations.
	Cycles  int64
	Injects int64
}

// SetStepProf attaches (or, with nil, detaches) a step-phase profile.
func (e *Engine) SetStepProf(p *StepProf) { e.prof = p }

// AttachPhaseProfs attaches a fresh core.PhaseProf to every node and
// returns them in global node order. Each node's profile is written only
// by the shard that ticks it, so the parallel region stays race-free;
// sum the slice with core.PhaseProf.Add between Steps.
func (e *Engine) AttachPhaseProfs() []*core.PhaseProf {
	profs := make([]*core.PhaseProf, len(e.nodes))
	for i, nd := range e.nodes {
		profs[i] = &core.PhaseProf{}
		nd.SetPhaseProf(profs[i])
	}
	return profs
}

// nowNS is the profiler clock (monotonic).
func nowNS() int64 { return time.Since(profEpoch).Nanoseconds() }

var profEpoch = time.Now()
