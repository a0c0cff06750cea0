// Package pipemem is a production-quality Go reproduction of
//
//	M. Katevenis, P. Vatsolaki, A. Efthymiou,
//	"Pipelined Memory Shared Buffer for VLSI Switches",
//	ACM SIGCOMM 1995.
//
// The package exposes, under one import path:
//
//   - the paper's primary contribution: a cycle-accurate RTL model of the
//     pipelined memory shared buffer switch (New, NewDual), with
//     automatic cut-through, pipelined control, staggered initiation, and
//     free-list/per-output-queue buffer management;
//   - the comparison baselines: the wide-memory shared buffer of fig. 3
//     (NewWide), the PRIZMA-style interleaved buffer of §5.3
//     (NewPrizma), and slot-level simulators of every §2 architecture
//     (input FIFO queueing, non-FIFO input buffering with PIM/iSLIP/2DRR
//     schedulers, output/crosspoint/shared/block-crosspoint queueing,
//     input smoothing);
//   - the three Telegraphos prototypes of §4 (Telegraphos I/II/III) with
//     routing translation and credit flow control;
//   - the analytic models and the VLSI area arithmetic of §3.4, §3.5,
//     §4 and §5;
//   - the experiment harness (Experiments) that regenerates every
//     quantitative claim of the paper; see EXPERIMENTS.md.
//
// # Quickstart
//
//	sw, err := pipemem.New(pipemem.Config{Ports: 8, WordBits: 16,
//	    Cells: 256, CutThrough: true})
//	...
//	stream, _ := pipemem.NewCellStream(pipemem.TrafficConfig{
//	    Kind: pipemem.Bernoulli, N: 8, Load: 0.5, Seed: 1}, sw.Config().Stages)
//	res, err := pipemem.RunTraffic(sw, stream, 100_000)
//
// The package's Example functions are runnable programs; cmd/pmexp runs
// the experiments, and examples/floorplan rescales the §5 area comparisons.
package pipemem

import (
	"fmt"
	"io"

	"pipemem/internal/analytic"
	"pipemem/internal/arb"
	"pipemem/internal/area"
	"pipemem/internal/cell"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fabric"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/fault"
	"pipemem/internal/obs"
	"pipemem/internal/prizma"
	"pipemem/internal/sar"
	"pipemem/internal/sim"
	"pipemem/internal/telegraphos"
	"pipemem/internal/trace"
	"pipemem/internal/traffic"
	"pipemem/internal/widemem"
)

// ---- The pipelined memory shared buffer (the paper's contribution) ----

// Word is the unit transferred on a link in one clock cycle (w ≤ 64
// effective bits).
type Word = cell.Word

// Cell is a fixed-size packet of exactly K words.
type Cell = cell.Cell

// NewCell builds a cell with a deterministic payload derived from
// (seq, src, dst), masked to width bits; word 0 carries the destination.
func NewCell(seq uint64, src, dst, words, width int) *Cell {
	return cell.New(seq, src, dst, words, width)
}

// Config parameterizes a pipelined memory switch; see core.Config.
type Config = core.Config

// Switch is the cycle-accurate pipelined memory shared buffer switch
// (fig. 4): K = 2n single-ported memory stages addressed in a pipelined
// fashion, one input register row per link, one shared output register
// row, control generated for stage 0 only, automatic cut-through.
type Switch = core.Switch

// Organization is the contract the four memory organizations behind the
// same links share — New's, NewDual's, NewWide's and NewPrizma's switches:
// heads in through Tick, each departure out through the DepartureSink
// installed with SetDepartureSink, and what a driver needs to feed and
// audit them. Run drives any of them. DepartureSink is exported beside it
// so that a type outside this module can implement the contract.
type (
	Organization  = core.Organization
	DepartureSink = core.DepartureSink
)

// TraceEvent is the fig. 5-style per-cycle control/datapath snapshot.
type TraceEvent = core.TraceEvent

// RunResult summarizes a traffic-driven RTL run of any organization.
type RunResult = core.RunResult

// VCDWriter renders the switch's per-cycle trace as an IEEE-1364 VCD
// waveform stream for viewers like GTKWave.
type VCDWriter = trace.VCDWriter

// NewVCDWriter prepares a VCD stream for the switch's geometry; install
// the returned writer's Trace method with Switch.SetTracer.
func NewVCDWriter(w io.Writer, s *Switch, cycleNs float64) *VCDWriter {
	return trace.NewVCDWriter(w, s, cycleNs)
}

// New builds a pipelined memory switch.
func New(cfg Config) (*Switch, error) { return core.New(cfg) }

// NewDual builds the §3.5 half-quantum organization: two n-stage
// pipelined memories handling cells of n words at full rate.
func NewDual(cfg Config) (*core.DualSwitch, error) { return core.NewDual(cfg) }

// Run drives any organization with a cell stream of its geometry, drains
// it, and verifies conservation and the integrity of every departure.
func Run(org Organization, cs *traffic.CellStream, cycles int64) (RunResult, error) {
	return core.Run(org, cs, cycles)
}

// RunTraffic is Run for a Switch in its allocation-free form, core.Runner.
func RunTraffic(s *Switch, cs *traffic.CellStream, cycles int64) (RunResult, error) {
	return core.RunTraffic(s, cs, cycles)
}

// ---- Observability (metrics registry, event tracing, profiling) ----

// MetricsRegistry is the allocation-free metrics registry: metrics are
// pre-registered at setup time and updated through live pointers (atomic
// counters/gauges/histograms, no map lookup on the hot path). Export with
// WritePrometheus (text exposition), WriteJSON / Snapshot (JSON API), or
// serve both with ServeDebug.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Observer bundles the switch's pre-registered metric slots (wave
// initiations, cut-throughs, stalls, queue depths, buffer high-water
// mark, drops, ECC activity, latency histograms) and an optional
// event tracer. Install with Switch.SetObserver.
type Observer = core.Observer

// NewObserver registers the switch's canonical pipemem_* metrics for an
// n-port switch and returns the observer.
func NewObserver(reg *MetricsRegistry, ports int) *Observer {
	return core.NewObserver(reg, ports)
}

// EventTracer samples typed trace events into a bounded ring and forwards
// them to a sink.
type EventTracer = obs.Tracer

// NewEventTracer builds a tracer forwarding to sink (nil = ring only)
// with the given ring capacity (≤ 0 means 1024), keeping 1 in
// sampleEvery events (≤ 1 keeps all).
func NewEventTracer(sink TraceSink, ringCap, sampleEvery int) *EventTracer {
	return obs.NewTracer(sink, ringCap, sampleEvery)
}

// TraceSink consumes typed trace events.
type TraceSink = obs.Sink

// JSONLSink encodes events (and raw records such as TraceEvent) as one
// JSON object per line.
type JSONLSink = obs.JSONLSink

// NewJSONLSink wraps w in a buffered JSONL encoder.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// JSONTracer returns a Switch.SetTracer callback that routes the fig. 5
// per-cycle TraceEvent stream through a JSONL sink as machine-readable
// records.
func JSONTracer(sink *JSONLSink) func(TraceEvent) { return core.JSONTracer(sink) }

// ServeDebug starts the opt-in debug HTTP server on addr: /metrics
// (Prometheus text), /metrics.json (JSON snapshot), /debug/pprof/
// (net/http/pprof), plus periodic runtime gauges. It returns the bound
// address and a stop function.
func ServeDebug(addr string, reg *MetricsRegistry) (string, func(), error) {
	return obs.ServeDebug(addr, reg)
}

// ---- Fault injection ----

// FaultPlan is a deterministic schedule of fault events.
type FaultPlan = fault.Plan

// FaultKind discriminates fault events.
type FaultKind = fault.Kind

// Fault kinds a random plan can draw.
const (
	FaultMem         = fault.Mem
	FaultLinkDrop    = fault.LinkDrop
	FaultLinkCorrupt = fault.LinkCorrupt
)

// ParseFaultPlan parses the "@cycle kind key=val…" plan text format.
func ParseFaultPlan(text string) (*FaultPlan, error) { return fault.Parse(text) }

// FaultRandomOptions parameterizes RandomFaultPlan.
type FaultRandomOptions = fault.RandomOptions

// RandomFaultPlan generates a seeded random plan (deterministic per seed).
func RandomFaultPlan(seed uint64, o FaultRandomOptions) *FaultPlan { return fault.Random(seed, o) }

// ---- Baseline shared-buffer organizations ----

// WideConfig parameterizes the wide-memory baseline (fig. 3).
type WideConfig = widemem.Config

// NewWide builds the wide-memory shared buffer with double input
// buffering and an optional explicit cut-through crossbar.
func NewWide(cfg WideConfig) (*widemem.Switch, error) { return widemem.New(cfg) }

// PrizmaConfig parameterizes the interleaved baseline (§5.3).
type PrizmaConfig = prizma.Config

// NewPrizma builds the PRIZMA-style one-cell-per-bank interleaved buffer.
func NewPrizma(cfg PrizmaConfig) (*prizma.Switch, error) { return prizma.New(cfg) }

// ---- Segmentation and reassembly (§3.5 multi-quantum packets) ----

// Packet is a variable-size unit of m·K words, segmented into m cells.
type Packet = sar.Packet

// NewSegmenter builds a segmenter, which slices packets into cells for
// injection, for an n-input switch with K-word cells of the given word
// width.
func NewSegmenter(n, k, width int) *sar.Segmenter { return sar.NewSegmenter(n, k, width) }

// NewReassembler builds a reassembler, which rebuilds packets from switch
// departures, for K-word cells.
func NewReassembler(k int) *sar.Reassembler { return sar.NewReassembler(k) }

// ---- Traffic ----

// TrafficConfig parameterizes a cell stream; see traffic.Config.
type TrafficConfig = traffic.Config

// Arrival processes.
const (
	Bernoulli   = traffic.Bernoulli
	Bursty      = traffic.Bursty
	Hotspot     = traffic.Hotspot
	Saturation  = traffic.Saturation
	Permutation = traffic.Permutation
)

// NewCellStream builds a word-serial cell stream for cells of cellLen
// words: for the RTL models with their cell length, for the §2
// architecture models with one-word cells (one cycle = one slot).
func NewCellStream(cfg TrafficConfig, cellLen int) (*traffic.CellStream, error) {
	return traffic.NewCellStream(cfg, cellLen)
}

// ---- Slot-level architecture simulators (§2) ----

// Arch is a slot-level switch architecture model.
type Arch = sim.Arch

// NewInputFIFO builds FIFO input queueing (head-of-line blocking).
func NewInputFIFO(n, bufCap int) Arch { return sim.NewInputFIFO(n, bufCap) }

// NewVOQ builds non-FIFO input buffering with the given scheduler, islip,
// pim or 2drr; any other name is an error.
func NewVOQ(n, bufCap int, scheduler string) (Arch, error) {
	var m arb.Matcher
	switch scheduler {
	case "islip":
		m = arb.NewISLIP(n, 0)
	case "pim":
		m = arb.NewPIM(0, 1)
	case "2drr":
		m = arb.NewTwoDRR()
	default:
		return nil, fmt.Errorf("pipemem: VOQ scheduler %q: want one of islip, pim, 2drr", scheduler)
	}
	return sim.NewVOQ(n, bufCap, m), nil
}

// NewOutputQueue builds output queueing with per-output capacity.
func NewOutputQueue(n, bufCap int) Arch { return sim.NewOutputQueue(n, bufCap) }

// NewSharedBufferArch builds slot-level shared buffering of total
// capacity bufCap cells.
func NewSharedBufferArch(n, bufCap int) Arch { return sim.NewSharedBuffer(n, bufCap) }

// NewCappedSharedBufferArch builds shared buffering with a per-output
// occupancy limit — hotspot-hogging protection (see
// sim.CappedSharedBuffer).
func NewCappedSharedBufferArch(n, bufCap, outCap int) Arch {
	return sim.NewCappedSharedBuffer(n, bufCap, outCap)
}

// NewCrosspoint builds crosspoint queueing with per-crosspoint capacity.
func NewCrosspoint(n, bufCap int) Arch { return sim.NewCrosspoint(n, bufCap) }

// NewBlockCrosspoint builds block-crosspoint buffering: groups of g×g
// ports share a buffer of blockCap cells. The block size g must divide n.
func NewBlockCrosspoint(n, g, blockCap int) (Arch, error) {
	if g < 1 || n%g != 0 {
		return nil, fmt.Errorf("pipemem: block size %d must divide n = %d", g, n)
	}
	return sim.NewBlockCrosspoint(n, g, blockCap), nil
}

// NewInputSmoothing builds the frame-based [HlKa88] scheme with frame b.
func NewInputSmoothing(n, b int) Arch { return sim.NewInputSmoothing(n, b) }

// NewSpeedupFabric builds input queueing over an s×-speed fabric with
// output queues; the speedup must be at least 1.
func NewSpeedupFabric(n, inCap, outCap, speedup int) (Arch, error) {
	if speedup < 1 {
		return nil, fmt.Errorf("pipemem: speedup %d: want ≥ 1", speedup)
	}
	return sim.NewSpeedupFabric(n, inCap, outCap, speedup), nil
}

// RunArch drives an architecture for warmup + measured slots with a
// stream of one-word cells (NewCellStream(cfg, 1)).
func RunArch(a Arch, cs *traffic.CellStream, warmup, measured int64) sim.Result {
	return sim.Run(a, cs, warmup, measured)
}

// ---- Multistage networks of pipelined-memory switches ----

// FabricConfig parameterizes a k-ary butterfly of pipelined-memory
// switches with credit flow control and chained cut-through.
type FabricConfig = fabric.Config

// NewFabric builds the butterfly.
func NewFabric(cfg FabricConfig) (*engine.Engine, error) { return fabric.New(cfg) }

// ---- Telegraphos prototypes (§4) ----

// TelegraphosModel describes one prototype generation.
type TelegraphosModel = telegraphos.Model

// TelegraphosSwitch is a prototype switch: pipelined buffer + routing
// translation + credit flow control.
type TelegraphosSwitch = telegraphos.Switch

// TelegraphosPacket is a header+payload packet on a Telegraphos link.
type TelegraphosPacket = telegraphos.Packet

// The three §4 prototypes.
func TelegraphosI() TelegraphosModel   { return telegraphos.TelegraphosI() }
func TelegraphosII() TelegraphosModel  { return telegraphos.TelegraphosII() }
func TelegraphosIII() TelegraphosModel { return telegraphos.TelegraphosIII() }

// NewTelegraphos builds a prototype's switch with the given per-link
// credit allowance (0 disables flow control).
func NewTelegraphos(m TelegraphosModel, creditsPerLink int) (*TelegraphosSwitch, error) {
	return telegraphos.NewSwitch(m, creditsPerLink)
}

// ---- Analytics and area models ----

// HOLSaturation returns the [KaHM87] input-queueing saturation throughput.
func HOLSaturation(n int) float64 { return analytic.HOLSaturation(n) }

// StaggeredInitiationDelay returns the §3.4 closed form (p/4)·(n-1)/n.
func StaggeredInitiationDelay(p float64, n int) float64 {
	return analytic.StaggeredInitiationDelay(p, n)
}

// Quantum is the §3.5 packet-size quantum calculator.
type Quantum = analytic.Quantum

// AggregateGbps returns buffer throughput for a width and cycle time.
func AggregateGbps(widthBits int, cycleNs float64) float64 {
	return analytic.AggregateGbps(widthBits, cycleNs)
}

// TechES2u10 is the paper's 1.0 µm full-custom process (Telegraphos III)
// for the area model.
var TechES2u10 = area.ES2u10

// DefaultAreaModel returns the §5.2 peripheral-area row model with
// coefficients fitted to the §5.2 anchors.
func DefaultAreaModel() area.RowModel { return area.DefaultRowModel() }

// PrizmaCrossbarRatio is the §5.3 cost ratio M/(2n).
func PrizmaCrossbarRatio(ports, banks int) float64 { return area.PrizmaCrossbarRatio(ports, banks) }

// CompareInputVsShared evaluates the fig. 9 floorplan comparison.
func CompareInputVsShared(n, w, cellsPerInput, sharedCells int) area.InputVsShared {
	return area.CompareInputVsShared(n, w, cellsPerInput, sharedCells)
}

// ---- Checkpoint/restore and the robustness session ----

// SimSpec describes a checkpointable simulation: switch and traffic
// configuration, driven window, policy spec and optional fault plan.
type SimSpec = ckpt.Spec

// SimOptions configures a session's robustness machinery: checkpoint
// cadence, online invariant-audit cadence, and the no-progress watchdog.
type SimOptions = ckpt.Options

// SimSession owns one checkpointable run.
type SimSession = ckpt.Session

// NewSession builds a session from scratch.
func NewSession(spec SimSpec, opts SimOptions) (*SimSession, error) { return ckpt.New(spec, opts) }

// ResumeSession rebuilds the session captured in the checkpoint at path.
func ResumeSession(path string, opts SimOptions) (*SimSession, error) {
	return ckpt.Resume(path, opts)
}
