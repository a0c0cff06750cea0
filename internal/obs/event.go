package obs

// The structured event-trace pipeline: a bounded ring of typed, fixed-size
// events with pluggable sinks. This replaces the ad-hoc string-only trace
// path — events carry machine-readable fields, the ring bounds memory, and
// sampling bounds per-cycle overhead.

// EventKind discriminates trace events — the event taxonomy of the
// switch's observable moments.
type EventKind uint8

const (
	// EvWriteWave: a write wave was initiated at stage 0 (a cell starts
	// depositing into the shared buffer). In = input, Addr = buffer
	// address.
	EvWriteWave EventKind = iota
	// EvReadWave: a read wave was initiated (a buffered cell starts
	// toward its output). Out = output, Addr = buffer address.
	EvReadWave
	// EvCutThrough: a write-through wave was initiated — the §3.3
	// same-cycle cut-through where the write wave doubles as the read
	// wave. In = input, Out = output, Addr = address.
	EvCutThrough
	// EvWaveEnd: a departure completed (the cell's tail word left on the
	// outgoing link). Out = output, V = head-in→head-out latency.
	EvWaveEnd
	// EvStall: a cycle in which at least one pending write wave could not
	// be initiated (§3.4 staggered initiation, a read holding the slot,
	// or a full buffer). V = pending write count.
	EvStall
	_ // retired: a bank map-out; kind values are stable wire identifiers
	// EvCRCRetransmit: a link-level CRC failure triggered a
	// retransmission. In = input link, V = retry attempt number.
	EvCRCRetransmit
	// EvDrop: a cell was lost to the buffer-management layer — a policy
	// refused an arrival (In = input, Out = destination) or a push-out
	// evicted a queued copy (In = -1, Out = victim output, Addr = freed
	// buffer address).
	EvDrop
	// EvWatchdog: the no-progress watchdog tripped — no cell was offered,
	// delivered or dropped across a whole window while cells were still
	// resident. V = resident cell count at detection. (Appended after
	// EvDrop; kind values are stable wire identifiers.)
	EvWatchdog
	// EvCheckpoint: a checkpoint of the full simulation state was written.
	// V = 1 for a periodic auto-checkpoint, 2 for a watchdog diagnostic.
	EvCheckpoint
	// EvInject: a traced cell entered a fabric at a terminal — the opening
	// span of a flight trace. Seq = flight sequence number, In = source
	// terminal, Out = destination terminal, Addr = stage-0 node.
	EvInject
	// EvHop: a traced cell's head left one fabric node — one span of a
	// flight trace. Seq = flight, In = stage, Addr = global node index,
	// Out = the node's buffered-cell count when the head was admitted
	// (queue depth at admission), V = hop latency in cycles (head arrival
	// at the node → head on the outgoing link).
	EvHop
	// EvEject: a traced cell left the fabric — the closing span. Seq =
	// flight, In = destination terminal, Addr = last-stage node, V =
	// end-to-end latency in cycles (inject → head ejection).
	EvEject
)

// String returns the kind's stable wire name (used by the JSONL sink).
func (k EventKind) String() string {
	switch k {
	case EvWriteWave:
		return "write-wave"
	case EvReadWave:
		return "read-wave"
	case EvCutThrough:
		return "cut-through"
	case EvWaveEnd:
		return "wave-end"
	case EvStall:
		return "stall"
	case EvCRCRetransmit:
		return "crc-retransmit"
	case EvDrop:
		return "drop"
	case EvWatchdog:
		return "watchdog"
	case EvCheckpoint:
		return "checkpoint"
	case EvInject:
		return "inject"
	case EvHop:
		return "hop"
	case EvEject:
		return "eject"
	default:
		return "unknown"
	}
}

// Event is one trace record: a fixed-size value (no pointers, no
// allocation to construct or copy). Fields not meaningful for a kind are
// negative (In/Out/Addr) or zero (V).
type Event struct {
	Kind  EventKind
	Cycle int64
	// In and Out are the input/output links involved, -1 when not
	// applicable; Addr is the buffer address or bank index, -1 when not
	// applicable.
	In, Out, Addr int32
	// V is the kind-specific magnitude (latency, pending count, attempt).
	V int64
	// Seq is the flight sequence number for the span kinds
	// (EvInject/EvHop/EvEject and flight-level EvDrop); 0 elsewhere.
	Seq uint64
}

// Sink consumes sampled trace events. Sinks are driven by the simulator's
// single thread; they need not be concurrency-safe.
type Sink interface {
	// Event receives one sampled event.
	Event(e Event)
	// Close flushes and releases the sink.
	Close() error
}

// MemSink buffers events in memory — the test sink.
type MemSink struct {
	Events []Event
}

// Event appends e.
func (s *MemSink) Event(e Event) { s.Events = append(s.Events, e) }

// Close is a no-op.
func (s *MemSink) Close() error { return nil }

// Count returns the number of buffered events of kind k.
func (s *MemSink) Count(k EventKind) int {
	n := 0
	for _, e := range s.Events {
		if e.Kind == k {
			n++
		}
	}
	return n
}

// Tracer is the front end of the event pipeline: it samples incoming
// events (1 in Every), keeps the most recent sampled events in a bounded
// ring, and forwards them to an optional sink. Emit on a nil *Tracer is a
// no-op, so instrumented code fires events unconditionally. A Tracer is
// single-writer (the simulation thread).
type Tracer struct {
	sink    Sink
	ring    []Event
	pos     int
	filled  bool
	every   int64
	seen    int64
	emitted Counter
	skipped Counter
}

// NewTracer builds a tracer forwarding to sink (nil = ring only).
// ringCap bounds the in-memory ring (≤ 0 means 1024). sampleEvery keeps
// 1 in every sampleEvery events (≤ 1 means keep all).
func NewTracer(sink Sink, ringCap, sampleEvery int) *Tracer {
	if ringCap <= 0 {
		ringCap = 1024
	}
	if sampleEvery < 1 {
		sampleEvery = 1
	}
	return &Tracer{sink: sink, ring: make([]Event, ringCap), every: int64(sampleEvery)}
}

// Emit offers an event to the pipeline. Sampled-out events are counted
// and dropped; sampled-in events land in the ring and the sink. Safe on a
// nil receiver (no-op).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.seen++
	if t.every > 1 && t.seen%t.every != 0 {
		t.skipped.Inc()
		return
	}
	t.emitted.Inc()
	t.ring[t.pos] = e
	t.pos++
	if t.pos == len(t.ring) {
		t.pos = 0
		t.filled = true
	}
	if t.sink != nil {
		t.sink.Event(e)
	}
}

// Ring returns a copy of the retained events, oldest first.
func (t *Tracer) Ring() []Event {
	if t == nil {
		return nil
	}
	if !t.filled {
		return append([]Event(nil), t.ring[:t.pos]...)
	}
	out := make([]Event, 0, len(t.ring))
	out = append(out, t.ring[t.pos:]...)
	return append(out, t.ring[:t.pos]...)
}

// Counts returns how many events were emitted (sampled in) and skipped
// (sampled out) so far.
func (t *Tracer) Counts() (emitted, skipped int64) {
	if t == nil {
		return 0, 0
	}
	return t.emitted.Value(), t.skipped.Value()
}

// Register publishes the tracer's own emitted/skipped tallies on reg so
// trace-pipeline health shows up in the metrics exposition.
func (t *Tracer) Register(reg *Registry) {
	if t == nil || reg == nil {
		return
	}
	// The tracer's counters pre-exist; register thin mirror metrics that
	// alias them.
	reg.register(&metric{name: "pipemem_trace_events_total",
		help: "Trace events sampled into the ring and sink.", kind: kindCounter, counter: &t.emitted})
	reg.register(&metric{name: "pipemem_trace_events_sampled_out_total",
		help: "Trace events dropped by sampling.", kind: kindCounter, counter: &t.skipped})
}

// Err surfaces the sink's first error without closing it, for callers that
// want to notice a dying trace mid-run rather than at Close. Sinks that do
// not report errors (and the nil tracer) yield nil.
func (t *Tracer) Err() error {
	if t == nil || t.sink == nil {
		return nil
	}
	if se, ok := t.sink.(interface{ Err() error }); ok {
		return se.Err()
	}
	return nil
}

// Close flushes the sink (if any).
func (t *Tracer) Close() error {
	if t == nil || t.sink == nil {
		return nil
	}
	return t.sink.Close()
}
