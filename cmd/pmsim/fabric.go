package main

import (
	"fmt"
	"os"

	"pipemem/internal/cli"
	"pipemem/internal/clos"
	"pipemem/internal/fabric"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// fabricOpts carries the -fabric mode configuration: a multistage
// network (butterfly or three-stage Clos) built on the sharded fabric
// engine, driven by terminal traffic.
type fabricOpts struct {
	kind      string // "butterfly" or "clos"
	terminals int
	radix     int
	middles   int
	cells     int
	credits   int
	workers   int

	traffic traffic.Config // N is the net's to fill in
	cycles  int64
	warmup  int64
	policy  string

	metrics     bool
	metricsJSON bool
	trace       *cli.TraceValue
}

// runFabric builds the requested multistage network, attaches the
// requested observability (flight trace, hop-latency histograms,
// telemetry ring) before driving it with the shared traffic flags,
// prints the run summary, and audits the final state (conservation,
// credit bounds, per-node invariants).
func runFabric(o fabricOpts) {
	var (
		net *fabric.Net // clos.Net is the same type
		err error
	)
	switch o.kind {
	case "butterfly":
		net, err = fabric.New(fabric.Config{
			Terminals: o.terminals, Radix: o.radix, WordBits: 16,
			SwitchCells: o.cells, Credits: o.credits, CutThrough: true,
			Policy: o.policy, Workers: o.workers,
		})
	case "clos":
		net, err = clos.New(clos.Config{
			Radix: o.radix, Middles: o.middles, WordBits: 16,
			SwitchCells: o.cells, Credits: o.credits, CutThrough: true,
			Policy: o.policy, Workers: o.workers,
		})
	default:
		die(2, fmt.Sprintf("-fabric %q: want butterfly or clos", o.kind))
	}
	if err != nil {
		die(1, err)
	}
	defer net.Close()

	// Observability attaches before the first Step: the metrics registry
	// is created up front so hop-latency histograms collect during the
	// run, the flight tracer samples deterministically by flight sequence
	// number, and the telemetry ring snapshots per-stage state on a fixed
	// cadence.
	var reg *obs.Registry
	if o.metrics || o.metricsJSON {
		reg = obs.NewRegistry()
		net.RegisterMetrics(reg, "fabric")
		net.RegisterHopHists(reg, "fabric")
	}
	var tracer *obs.Tracer
	if o.trace != nil && o.trace.Out != "" {
		f, err := os.Create(o.trace.Out)
		if err != nil {
			die(1, err)
		}
		// Sampling is done engine-side by flight seq; the tracer itself
		// passes everything through (sampleEvery 1, unbounded). The sink
		// owns the file and closes it with the tracer.
		tracer = obs.NewTracer(obs.NewJSONLSink(f), 0, 1)
		if err := net.SetFlightTrace(tracer, o.trace.Sample); err != nil {
			die(1, err)
		}
	}
	var ts *obs.TimeSeries
	if o.trace != nil && o.trace.TelemetryOut != "" {
		ts = net.EnableTelemetry(0, o.trace.EffectiveTelemetryEvery(o.warmup+o.cycles))
	}

	res, err := net.Run(o.traffic, o.warmup, o.cycles)
	if err != nil {
		die(1, err)
	}

	if tracer != nil {
		if err := tracer.Close(); err != nil {
			die(1, err)
		}
	}
	if ts != nil {
		f, err := os.Create(o.trace.TelemetryOut)
		if err != nil {
			die(1, err)
		}
		werr := ts.WriteJSONL(f)
		cerr := f.Close()
		if werr != nil {
			die(1, werr)
		}
		if cerr != nil {
			die(1, cerr)
		}
	}

	fmt.Printf("fabric %s terminals=%d stages=%d workers=%d\n%s\n",
		o.kind, net.Terminals(), net.Stages(), o.workers, res)
	if q := net.Latency(); q.N() > 0 {
		fmt.Printf("latency p50=%d p99=%d max=%d\n",
			q.Quantile(0.50), q.Quantile(0.99), q.Max())
	}
	if err := net.Audit(); err != nil {
		die(1, fmt.Sprint("post-run audit FAILED: ", err))
	}
	fmt.Println("post-run audit passed")

	if reg != nil {
		net.SyncMetrics()
		var err error
		if o.metricsJSON {
			err = reg.WriteJSON(os.Stdout)
		} else {
			err = reg.WritePrometheus(os.Stdout)
		}
		if err != nil {
			die(1, err)
		}
	}
}
