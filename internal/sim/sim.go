// Package sim provides slot-level (cell-time) simulators of every switch
// buffering architecture discussed in §2 of the paper:
//
//	fig. 1 (low-throughput buffers):   input FIFO queueing, non-FIFO input
//	                                   buffering, higher-throughput fabric
//	                                   with output queues, crosspoint
//	                                   queueing;
//	fig. 2 (high-throughput buffers):  output queueing, shared buffering,
//	                                   block-crosspoint buffering;
//	plus the frame-based "input smoothing" of [HlKa88], the third column
//	of the buffer-sizing comparison quoted in §2.2.
//
// One slot is one cell time: in each slot every input receives at most one
// cell and every output transmits at most one cell. These are the models
// under which the quantitative results quoted in §2 were derived
// ([KaHM87], [HlKa88], [AOST93]), so they are the right granularity for
// reproducing them; the cycle-accurate word-level model of the pipelined
// memory itself lives in internal/core.
package sim

import (
	"fmt"

	"pipemem/internal/stats"
	"pipemem/internal/traffic"
)

// NoArrival mirrors traffic.NoArrival for the arrivals slice.
const NoArrival = traffic.NoArrival

// Arch is a slot-level switch architecture model.
type Arch interface {
	// N returns the port count (N inputs and N outputs).
	N() int
	// Step advances the model one slot. arrivals[i] is the destination
	// of the cell arriving at input i this slot, or NoArrival. All
	// bookkeeping (drops, departures, latency) is recorded in Metrics.
	Step(arrivals []int)
	// Metrics exposes the accumulated measurements.
	Metrics() *Metrics
	// Resident returns the number of cells currently buffered, for
	// conservation checking.
	Resident() int
	// Name identifies the architecture in reports.
	Name() string
}

// item is a buffered cell at slot granularity.
type item struct {
	dst int
	t   int64 // arrival slot
}

// Metrics accumulates the standard measurements across all architectures.
type Metrics struct {
	// Slot is the current slot number (number of Step calls so far).
	Slot int64
	// Offered counts cells presented by the traffic source; Accepted
	// those actually buffered; Dropped those lost to full buffers;
	// Departed those transmitted.
	Offered, Accepted, Dropped, Departed int64
	// Latency records departure-arrival in slots (0 = departs in the
	// arrival slot).
	Latency *stats.Hist
	// OfferedTo and DroppedTo count per destination (lazily sized), for
	// per-class loss attribution (hotspot experiments).
	OfferedTo, DroppedTo []int64
	// measureStart is the slot measurement began; residentStart the cells
	// buffered at that moment (carried-over work for Conserve).
	measureStart  int64
	residentStart int64
}

func newMetrics() *Metrics {
	return &Metrics{Latency: stats.NewHist(4096)}
}

// StartMeasurement resets the counters after a warm-up period so that
// transient behaviour does not pollute steady-state estimates.
func (m *Metrics) StartMeasurement() {
	m.Offered, m.Accepted, m.Dropped, m.Departed = 0, 0, 0, 0
	m.OfferedTo, m.DroppedTo = nil, nil
	m.Latency = stats.NewHist(4096)
	m.measureStart = m.Slot
	m.residentStart = 0
}

func (m *Metrics) arrival(dst int, accepted bool) {
	m.Offered++
	m.perDst(dst)
	m.OfferedTo[dst]++
	if accepted {
		m.Accepted++
	} else {
		m.Dropped++
		m.DroppedTo[dst]++
	}
}

// perDst grows the per-destination counters to cover dst.
func (m *Metrics) perDst(dst int) {
	for len(m.OfferedTo) <= dst {
		m.OfferedTo = append(m.OfferedTo, 0)
		m.DroppedTo = append(m.DroppedTo, 0)
	}
}

// lateDrop records the loss of a cell that had been accepted earlier
// (frame-based schemes decide at the frame boundary).
func (m *Metrics) lateDrop(dst int) {
	m.Dropped++
	m.Accepted--
	m.perDst(dst)
	m.DroppedTo[dst]++
}

// LossTo returns the loss probability of cells addressed to dst.
func (m *Metrics) LossTo(dst int) float64 {
	if dst >= len(m.OfferedTo) || m.OfferedTo[dst] == 0 {
		return 0
	}
	return float64(m.DroppedTo[dst]) / float64(m.OfferedTo[dst])
}

func (m *Metrics) departure(enq int64) {
	m.Departed++
	m.Latency.Add(m.Slot - enq)
}

// MeasuredSlots returns the number of slots since measurement started.
func (m *Metrics) MeasuredSlots() int64 { return m.Slot - m.measureStart }

// Throughput returns departed cells per output port per slot.
func (m *Metrics) Throughput(n int) float64 {
	s := m.MeasuredSlots()
	if s == 0 {
		return 0
	}
	return float64(m.Departed) / float64(s) / float64(n)
}

// LossProb returns the fraction of offered cells dropped.
func (m *Metrics) LossProb() float64 {
	if m.Offered == 0 {
		return 0
	}
	return float64(m.Dropped) / float64(m.Offered)
}

// MeanLatency returns the mean departure latency in slots.
func (m *Metrics) MeanLatency() float64 { return m.Latency.Mean() }

// Result is the summary a Runner produces.
type Result struct {
	Arch        string
	N           int
	Slots       int64
	Throughput  float64
	LossProb    float64
	MeanLatency float64
	// P99Latency is a histogram quantile: while LatencyOverflow is nonzero
	// it may read the histogram's limit rather than a measured value.
	P99Latency int64
	// LatencyOverflow counts departures whose latency exceeded the
	// histogram's limit (their true magnitude still counts in the mean).
	LatencyOverflow int64
	Offered         int64
	Departed        int64
	Dropped         int64
}

// String implements fmt.Stringer with a compact report line.
func (r Result) String() string {
	s := fmt.Sprintf("%-14s n=%-3d thr=%.4f loss=%.2e lat=%.2f p99=%d",
		r.Arch, r.N, r.Throughput, r.LossProb, r.MeanLatency, r.P99Latency)
	if r.LatencyOverflow > 0 {
		s += fmt.Sprintf(" lat-overflow=%d", r.LatencyOverflow)
	}
	return s
}

// Run drives arch with a stream of one-word cells — one cycle is one slot —
// for warmup slots (discarded) followed by measured slots, and returns the
// summary. It panics if the stream and arch disagree on the port count
// (Heads refuses the arrival vector) or if the run violates cell
// conservation (Conserve) — both programming errors.
func Run(arch Arch, cs *traffic.CellStream, warmup, measured int64) Result {
	arrivals := make([]int, arch.N())
	for s := int64(0); s < warmup; s++ {
		cs.Heads(arrivals)
		arch.Step(arrivals)
	}
	arch.Metrics().StartMeasurement()
	arch.Metrics().residentStart = int64(arch.Resident())
	for s := int64(0); s < measured; s++ {
		cs.Heads(arrivals)
		arch.Step(arrivals)
	}
	m := arch.Metrics()
	if err := Conserve(arch); err != nil {
		panic(err) // a model that loses or invents cells is a programming error
	}
	return Result{
		Arch:            arch.Name(),
		N:               arch.N(),
		Slots:           measured,
		Throughput:      m.Throughput(arch.N()),
		LossProb:        m.LossProb(),
		MeanLatency:     m.MeanLatency(),
		P99Latency:      m.Latency.Quantile(0.99),
		LatencyOverflow: m.Latency.Overflow(),
		Offered:         m.Offered,
		Departed:        m.Departed,
		Dropped:         m.Dropped,
	}
}
