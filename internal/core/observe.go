package core

import (
	"pipemem/internal/obs"
)

// Observer bundles the pre-registered metric slots and the event tracer a
// Switch reports into. Construct one with NewObserver and install it with
// Switch.SetObserver; every field is a live slot in the registry, which
// SyncObserver publishes into without a map lookup or allocation. With no
// observer installed the instrumentation is one nil test per event, and
// the hot path stays at 0 allocs/op either way.
type Observer struct {
	// Tracer receives the typed event stream (nil = metrics only). All
	// Emit calls are nil-safe.
	Tracer *obs.Tracer

	// Wave initiations by kind (§3.3): write waves deposit a cell into
	// the buffer, read waves start a buffered cell toward its output, and
	// cut-through waves are the same-cycle write-through upgrade.
	WriteWaves, ReadWaves, CutThroughs *obs.Counter
	// Stalls counts cycles in which at least one eligible pending write
	// wave could not be initiated (§3.4 staggered initiation, a read
	// holding the stage-0 slot, or a full buffer).
	Stalls *obs.Counter
	// Delivered counts completed departures; DropOverrun the built-in loss
	// mode (displaced arrivals). DropPolicy and DropPushOut count the
	// buffer-management layer's decisions: arrivals refused by the
	// installed bufmgr policy and queued copies preempted to make room.
	Delivered, DropOverrun, DropPolicy, DropPushOut *obs.Counter
	// ECC activity from the fault-tolerance layer.
	ECCCorrected, ECCUncorrectable, ECCHard *obs.Counter
	// Link-protocol activity (fault.Link wires these when protecting a
	// switch's input links).
	LinkRetransmits, LinkFailed *obs.Counter

	// Buffered and FreeCells are the shared-buffer occupancy when last
	// published; HighWater is the peak occupancy (high-water mark) since
	// the install.
	Buffered, FreeCells, HighWater *obs.Gauge
	// QueueDepth is the per-output queue depth (cells queued across the
	// output's VCs) when last published.
	QueueDepth *obs.GaugeVec
	// InputStalls exposes per-input backpressure: cycles each input held
	// a cell still waiting for its write wave. InputDrops and OutputDrops
	// break lost cells down by arrival input and by destination output —
	// the per-port visibility that replaces the silent retry-forever on
	// buffer exhaustion.
	InputStalls, InputDrops, OutputDrops *obs.GaugeVec

	// CutLatency is the head-in→head-out latency distribution;
	// InitDelay the §3.4 staggered-initiation delay distribution.
	CutLatency, InitDelay *obs.Histogram
}

// NewObserver registers the switch's canonical pipemem_* metrics on reg
// (sized for an n-port switch) and returns the observer. Attach a tracer
// by setting the Tracer field before installing.
func NewObserver(reg *obs.Registry, ports int) *Observer {
	return &Observer{
		WriteWaves:       reg.Counter("pipemem_write_waves_total", "Write waves initiated (cells accepted into the shared buffer)."),
		ReadWaves:        reg.Counter("pipemem_read_waves_total", "Read waves initiated (buffered cells started toward an output)."),
		CutThroughs:      reg.Counter("pipemem_cut_through_waves_total", "Write-through waves initiated (§3.3 same-cycle cut-through)."),
		Stalls:           reg.Counter("pipemem_init_stalls_total", "Cycles with an eligible pending write wave that could not initiate (§3.4)."),
		Delivered:        reg.Counter("pipemem_delivered_total", "Cells fully reassembled on an outgoing link."),
		DropOverrun:      reg.Counter("pipemem_drop_overrun_total", "Cells displaced from an input register row before obtaining a write wave."),
		DropPolicy:       reg.Counter("pipemem_drop_policy_total", "Arrivals refused by the shared-buffer admission policy."),
		DropPushOut:      reg.Counter("pipemem_drop_pushout_total", "Queued copies preempted (pushed out) to admit an arrival."),
		ECCCorrected:     reg.Counter("pipemem_ecc_corrected_total", "Single-bit upsets corrected (and scrubbed) by SEC-DED."),
		ECCUncorrectable: reg.Counter("pipemem_ecc_uncorrectable_total", "Multi-bit ECC failures."),
		ECCHard:          reg.Counter("pipemem_ecc_hard_total", "Corrected locations that failed scrub-verify (hard faults)."),
		LinkRetransmits:  reg.Counter("pipemem_link_retransmits_total", "CRC-triggered link retransmissions."),
		LinkFailed:       reg.Counter("pipemem_link_failed_total", "Cells abandoned by the link protocol after exhausting retries."),
		Buffered:         reg.Gauge("pipemem_buffered_cells", "Cells currently held in the shared buffer."),
		FreeCells:        reg.Gauge("pipemem_free_cells", "Unallocated buffer addresses."),
		HighWater:        reg.Gauge("pipemem_buffer_high_water_cells", "Peak shared-buffer occupancy over the run."),
		QueueDepth:       reg.GaugeVec("pipemem_output_queue_depth", "Cells queued per output across its VCs.", "output", ports),
		InputStalls:      reg.GaugeVec("pipemem_input_stall_cycles", "Cycles each input held a cell still waiting for its write wave.", "input", ports),
		InputDrops:       reg.GaugeVec("pipemem_input_dropped_cells", "Cells lost, by arrival input (overrun + policy drops).", "input", ports),
		OutputDrops:      reg.GaugeVec("pipemem_output_dropped_cells", "Cells lost, by destination output (all loss modes).", "output", ports),
		CutLatency:       reg.Histogram("pipemem_cut_latency_cycles", "Head-in to head-out latency.", obs.ExpBounds(2, 2, 12)),
		InitDelay:        reg.Histogram("pipemem_init_delay_cycles", "Write-wave staggered-initiation delay beyond head+1 (§3.4).", obs.ExpBounds(1, 2, 10)),
	}
}

// SetObserver installs (or, with nil, removes) the switch's observer,
// which counts from the install on. Its slots can be snapshotted
// concurrently from another goroutine and hold what SyncObserver last
// published.
func (s *Switch) SetObserver(o *Observer) {
	s.obs = nil
	if o == nil {
		return
	}
	w := &observed{
		Observer:  o,
		seed:      int64(s.queues.Total()),
		since:     s.cycle,
		cutLat:    obs.NewHistShadow(o.CutLatency),
		initDelay: obs.NewHistShadow(o.InitDelay),
	}
	w.mirrors = [...]mirror{
		{src: &s.counts.Delivered, dst: o.Delivered},
		{src: &s.counts.DropOverrun, dst: o.DropOverrun},
		{src: &s.counts.DropPolicy, dst: o.DropPolicy},
		{src: &s.counts.DropPushout, dst: o.DropPushOut},
		{src: &s.counts.ECCCorrected, dst: o.ECCCorrected},
		{src: &s.counts.ECCUncorrectable, dst: o.ECCUncorrectable},
		{src: &s.counts.ECCHard, dst: o.ECCHard},
		{src: &w.waves[OpWrite], dst: o.WriteWaves},
		{src: &w.waves[OpRead], dst: o.ReadWaves},
		{src: &w.waves[OpWriteThrough], dst: o.CutThroughs},
		{src: &w.stalls, dst: o.Stalls},
	}
	for i := range w.mirrors {
		w.mirrors[i].last = *w.mirrors[i].src
	}
	s.obs = w
}

// Observer returns the installed observer (nil when observability is
// disabled).
func (s *Switch) Observer() *Observer {
	if s.obs == nil {
		return nil
	}
	return s.obs.Observer
}

// observed is the switch's side of an installed observer: tallies bumped
// by the events that produce them, in plain memory only the switch writes,
// which SyncObserver publishes into the registry's atomics. No part of it
// runs on an idle cycle, so an observed switch coasts like a bare one.
type observed struct {
	*Observer
	// waves counts initiations by OpKind; stalls the cycles that ended
	// arbitration with an arrival still waiting (§3.4).
	waves  [4]int64
	stalls int64
	// peak is the largest occupancy at a wave initiation, where the buffer
	// grows. seed, the occupancy at the install, is the level of the first
	// watched cycle (since) if that cycle initiates no wave.
	peak, seed, since int64
	// mirrors feed registry counters from monotone tallies: the switch's
	// delivered, drop and ECC counters and the two above.
	mirrors           [11]mirror
	cutLat, initDelay *obs.HistShadow
}

// mirror is one registry counter fed from a plain tally: last is the
// tally's value when it was last published.
type mirror struct {
	src  *int64
	dst  *obs.Counter
	last int64
}

// wave books the wave initiated at cycle c, with the buffer holding
// buffered copies once it has.
func (w *observed) wave(c int64, op *Op, buffered int) {
	w.waves[op.Kind]++
	if c == w.since {
		w.seed = 0
	}
	w.peak = max(w.peak, int64(buffered))
	tr := w.Tracer
	if tr == nil {
		return
	}
	switch op.Kind {
	case OpWrite:
		tr.Emit(obs.Event{Kind: obs.EvWriteWave, Cycle: c, In: int32(op.In), Out: -1, Addr: int32(op.Addr)})
	case OpRead:
		tr.Emit(obs.Event{Kind: obs.EvReadWave, Cycle: c, In: -1, Out: int32(op.Out), Addr: int32(op.Addr)})
	case OpWriteThrough:
		tr.Emit(obs.Event{Kind: obs.EvCutThrough, Cycle: c, In: int32(op.In), Out: int32(op.Out), Addr: int32(op.Addr)})
	}
}

// stall books a cycle that ended arbitration with pending arrivals still
// waiting: only one wave can initiate per cycle, so each waited.
func (w *observed) stall(c int64, pending int) {
	w.stalls++
	if tr := w.Tracer; tr != nil {
		tr.Emit(obs.Event{Kind: obs.EvStall, Cycle: c, In: -1, Out: -1, Addr: -1, V: int64(pending)})
	}
}

// SyncObserver publishes what the switch has tallied since the last call —
// counters, both histograms, the high-water mark — and sets the occupancy
// gauges to the present state. ckpt.Session calls it when StepN or Run
// returns and every 4096 cycles in between, Report at the end of a run;
// whoever ticks a switch by hand calls it before reading the registry.
func (s *Switch) SyncObserver() {
	w := s.obs
	if w == nil {
		return
	}
	for i := range w.mirrors {
		m := &w.mirrors[i]
		if v := *m.src; v != m.last {
			m.dst.Add(v - m.last)
			m.last = v
		}
	}
	w.cutLat.Flush()
	w.initDelay.Flush()
	if s.cycle > w.since && w.seed > w.peak {
		w.peak = w.seed
	}
	w.HighWater.SetMax(w.peak)
	w.Buffered.Set(int64(s.queues.Total()))
	w.FreeCells.Set(int64(s.free.Free()))
	for i := 0; i < s.n; i++ {
		w.QueueDepth.At(i).Set(int64(s.QueuedFor(i)))
		w.InputStalls.At(i).Set(s.inputStall(i))
		w.InputDrops.At(i).Set(s.inDrops[i])
		w.OutputDrops.At(i).Set(s.outDrops[i])
	}
}
