package engine

import (
	"pipemem/internal/obs"
)

// metrics is the engine's pre-registered observability surface: fabric
// totals plus per-node gauge vectors (indexed by flat global node id,
// stage-major — node 0 of stage 1 follows the last node of stage 0).
type metrics struct {
	cycle     *obs.Gauge
	injected  *obs.Gauge
	delivered *obs.Gauge
	inflight  *obs.Gauge
	latOvf    *obs.Gauge
	badEject  *obs.Gauge

	nodeBuffered *obs.GaugeVec
	nodeArrivals *obs.GaugeVec
	nodeDrops    *obs.GaugeVec
}

// RegisterMetrics pre-registers the engine's metrics on reg under the
// given name prefix (e.g. "fabric"). Call once, before serving the
// registry; SyncMetrics then publishes fresh values on demand. The
// per-node vectors carry one element per switch in the whole fabric.
func (e *Engine) RegisterMetrics(reg *obs.Registry, prefix string) {
	m := &metrics{
		cycle:     reg.Gauge(prefix+"_cycle", "current fabric cycle"),
		injected:  reg.Gauge(prefix+"_injected_cells", "cells offered at the terminals"),
		delivered: reg.Gauge(prefix+"_delivered_cells", "cells delivered end to end"),
		inflight:  reg.Gauge(prefix+"_inflight_cells", "cells inside the fabric"),
		latOvf:    reg.Gauge(prefix+"_latency_overflow", "latency samples beyond the histogram range"),
		badEject:  reg.Gauge(prefix+"_bad_ejects", "corrupt or misrouted ejections"),

		nodeBuffered: reg.GaugeVec(prefix+"_node_buffered_cells", "cells resident per switch element", "node", len(e.nodes)),
		nodeArrivals: reg.GaugeVec(prefix+"_node_arrivals", "head cells forwarded through each switch element", "node", len(e.nodes)),
		nodeDrops:    reg.GaugeVec(prefix+"_node_dropped_cells", "cells dropped inside each switch element", "node", len(e.nodes)),
	}
	e.met = m
}

// SyncMetrics publishes the current engine state into the registered
// metrics. Safe to call at any cadence (it reads counters the engine
// already maintains — no extra hot-loop work); a no-op when
// RegisterMetrics was never called. Must run between Steps (it flushes
// the shard-local hop-latency shadows).
func (e *Engine) SyncMetrics() {
	if e.hopHists != nil {
		e.flushHopHists()
	}
	m := e.met
	if m == nil {
		return
	}
	m.cycle.Set(e.cycle)
	m.injected.Set(e.injected)
	m.delivered.Set(e.delivered)
	m.inflight.Set(int64(e.flights.n))
	m.latOvf.Set(e.latency.Overflow())
	m.badEject.Set(e.badEject)
	for g, nd := range e.nodes {
		m.nodeBuffered.At(g).Set(int64(nd.Buffered()))
		m.nodeArrivals.At(g).Set(e.arrivals[g])
		m.nodeDrops.At(g).Set(nd.DroppedCells())
	}
}
