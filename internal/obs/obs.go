// Package obs is the switch-wide observability layer: an allocation-free
// metrics registry, a structured event-trace pipeline with pluggable
// sinks, and exporters (Prometheus text exposition, JSON snapshot) plus
// runtime profiling hooks.
//
// The registry follows a pre-registration discipline: every metric is
// created once at setup time (Registry.Counter, .Gauge, .Histogram,
// .GaugeVec), which hands the caller a live pointer. The hot path then
// updates through that pointer — a single atomic add or store, no map
// lookup, no allocation, no lock. Readers (Snapshot, WritePrometheus)
// run concurrently with writers: every value is read atomically, so
// counters observed across successive snapshots are monotonic.
//
// All update methods are nil-receiver safe: a component holding an
// optional *Counter can bump it unconditionally, and a nil pointer makes
// the operation a no-op. The simulators exploit this — with observability
// disabled the entire instrumentation collapses to one pointer test per
// event, keeping the Tick hot path at 0 allocs/op (core's
// TestTickZeroAlloc*; the wall-clock cost is the obs row of `make
// wallclock`).
package obs

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event tally.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on a nil receiver (no-op).
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds delta (must be ≥ 0 to keep the counter monotonic). Safe on a
// nil receiver (no-op).
func (c *Counter) Add(delta int64) {
	if c != nil {
		c.v.Add(delta)
	}
}

// Value returns the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous level (queue depth, free cells, heap bytes).
type Gauge struct {
	v atomic.Int64
}

// Set stores the current level. Safe on a nil receiver (no-op).
func (g *Gauge) Set(v int64) {
	if g != nil {
		g.v.Store(v)
	}
}

// Add adjusts the level by delta. Safe on a nil receiver (no-op).
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// SetMax raises the gauge to v if v exceeds the current value — the
// high-water-mark update. Safe on a nil receiver (no-op).
func (g *Gauge) SetMax(v int64) {
	if g == nil {
		return
	}
	for {
		cur := g.v.Load()
		if v <= cur || g.v.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value returns the current level (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// GaugeVec is a fixed-size family of gauges indexed by an integer label
// (per-output queue depth, per-stage error count). The size is frozen at
// registration, so At never allocates.
type GaugeVec struct {
	label string
	slots []Gauge
}

// At returns the gauge for index i (nil — and therefore a no-op target —
// when the receiver is nil or i is out of range).
func (v *GaugeVec) At(i int) *Gauge {
	if v == nil || i < 0 || i >= len(v.slots) {
		return nil
	}
	return &v.slots[i]
}

// Len returns the number of slots (0 on a nil receiver).
func (v *GaugeVec) Len() int {
	if v == nil {
		return 0
	}
	return len(v.slots)
}

// kind discriminates registered metric types.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
	kindGaugeVec
	kindHistogram
)

// metric is one registered name.
type metric struct {
	name, help string
	kind       kind
	counter    *Counter
	gauge      *Gauge
	vec        *GaugeVec
	hist       *Histogram
}

// Registry holds the pre-registered metrics of one process (or one
// simulation). Registration is mutex-guarded setup-time work; updates go
// through the returned pointers and never touch the registry again.
type Registry struct {
	mu      sync.Mutex
	metrics []*metric
	byName  map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*metric{}}
}

// register adds m under its name, panicking on a duplicate: metric names
// are a startup-time namespace, and a collision is a programming error.
func (r *Registry) register(m *metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.byName[m.name]; dup {
		panic(fmt.Sprintf("obs: duplicate metric %q", m.name))
	}
	r.byName[m.name] = m
	r.metrics = append(r.metrics, m)
}

// Counter registers and returns a counter.
func (r *Registry) Counter(name, help string) *Counter {
	c := &Counter{}
	r.register(&metric{name: name, help: help, kind: kindCounter, counter: c})
	return c
}

// Gauge registers and returns a gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	g := &Gauge{}
	r.register(&metric{name: name, help: help, kind: kindGauge, gauge: g})
	return g
}

// GaugeVec registers and returns a fixed-size gauge family whose
// exposition labels each slot i as name{label="i"}.
func (r *Registry) GaugeVec(name, help, label string, n int) *GaugeVec {
	if n < 0 {
		n = 0
	}
	v := &GaugeVec{label: label, slots: make([]Gauge, n)}
	r.register(&metric{name: name, help: help, kind: kindGaugeVec, vec: v})
	return v
}

// Histogram registers and returns a fixed-bucket histogram; bounds are
// the inclusive upper bucket bounds, strictly increasing (an implicit
// +Inf bucket is appended).
func (r *Registry) Histogram(name, help string, bounds []int64) *Histogram {
	h := NewHistogram(bounds)
	r.register(&metric{name: name, help: help, kind: kindHistogram, hist: h})
	return h
}

// sorted returns the registered metrics ordered by name — the stable
// ordering every exporter uses.
func (r *Registry) sorted() []*metric {
	r.mu.Lock()
	ms := append([]*metric(nil), r.metrics...)
	r.mu.Unlock()
	sort.Slice(ms, func(i, j int) bool { return ms[i].name < ms[j].name })
	return ms
}
