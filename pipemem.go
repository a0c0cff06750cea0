// Package pipemem is a production-quality Go reproduction of
//
//	M. Katevenis, P. Vatsolaki, A. Efthymiou,
//	"Pipelined Memory Shared Buffer for VLSI Switches",
//	ACM SIGCOMM 1995.
//
// The package exposes, under one import path:
//
//   - the paper's primary contribution: a cycle-accurate RTL model of the
//     pipelined memory shared buffer switch (Switch, DualSwitch), with
//     automatic cut-through, pipelined control, staggered initiation, and
//     free-list/per-output-queue buffer management;
//   - the comparison baselines: the wide-memory shared buffer of fig. 3
//     (WideSwitch), the PRIZMA-style interleaved buffer of §5.3
//     (PrizmaSwitch), and slot-level simulators of every §2 architecture
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
// See examples/ for runnable programs.
package pipemem

import (
	"fmt"
	"io"
	"strings"

	"pipemem/internal/analytic"
	"pipemem/internal/arb"
	"pipemem/internal/area"
	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/ckpt"
	"pipemem/internal/clos"
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
	"pipemem/internal/wormhole"
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

// DualSwitch is the §3.5 half-quantum organization: two n-stage pipelined
// memories handling cells of n words at full rate.
type DualSwitch = core.DualSwitch

// Organization is the contract the four memory organizations behind the
// same links share — Switch, DualSwitch, WideSwitch and PrizmaSwitch: heads
// in through Tick, each departure out through the DepartureSink installed
// with SetDepartureSink, and what a driver needs to feed and audit them
// (Geometry among it). Run drives any of them. DepartureSink is exported
// beside it so that a type outside this module can implement the contract.
type (
	Organization  = core.Organization
	Geometry      = core.Geometry
	DepartureSink = core.DepartureSink
)

// Departure reports one cell leaving a switch through Drain, with the
// timing and the observed words a DepartureSink does not carry.
type Departure = core.Departure

// TraceEvent is the fig. 5-style per-cycle control/datapath snapshot.
type TraceEvent = core.TraceEvent

// Op and OpKind are the pipelined control words.
type (
	Op     = core.Op
	OpKind = core.OpKind
)

// Control-word kinds.
const (
	OpNone         = core.OpNone
	OpWrite        = core.OpWrite
	OpRead         = core.OpRead
	OpWriteThrough = core.OpWriteThrough
)

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

// NewDual builds the half-quantum two-memory switch (§3.5).
func NewDual(cfg Config) (*DualSwitch, error) { return core.NewDual(cfg) }

// Run drives any organization with a cell stream of its geometry, drains
// it, and verifies conservation and the integrity of every departure.
func Run(org Organization, cs *CellStream, cycles int64) (RunResult, error) {
	return core.Run(org, cs, cycles)
}

// RunTraffic is Run for a Switch in its allocation-free form, core.Runner.
func RunTraffic(s *Switch, cs *CellStream, cycles int64) (RunResult, error) {
	return core.RunTraffic(s, cs, cycles)
}

// ---- Shared-buffer management (admission policies) ----

// BufferPolicy decides, per arriving cell, whether the shared buffer
// admits it, refuses it, or preempts a resident cell to make room.
// Install with Switch.SetBufferPolicy; nil keeps the paper's
// complete-sharing-by-backpressure behavior.
type (
	BufferPolicy  = bufmgr.Policy
	BufferState   = bufmgr.State
	BufferVerdict = bufmgr.Verdict
	BufferAction  = bufmgr.Action
)

// Buffer admission verdict actions.
const (
	BufAccept  = bufmgr.Accept
	BufDrop    = bufmgr.Drop
	BufPushOut = bufmgr.PushOut
)

// ErrBadPolicy reports a malformed buffer-policy spec.
var ErrBadPolicy = bufmgr.ErrBadConfig

// ParseBufferPolicy builds a policy from a spec like "dt:alpha=2"; see
// BufferPolicySpecs for the names.
func ParseBufferPolicy(spec string) (BufferPolicy, error) { return bufmgr.Parse(spec) }

// BufferPolicySpecs lists the canonical policy spec names.
func BufferPolicySpecs() []string { return bufmgr.Specs() }

// NewCompleteSharing admits while any cell is free (backpressure only).
func NewCompleteSharing() BufferPolicy { return bufmgr.CompleteSharing{} }

// NewStaticPartition reserves a fixed per-output quota (0 = capacity/n).
func NewStaticPartition(quota int) BufferPolicy { return bufmgr.StaticPartition{Quota: quota} }

// NewDynamicThreshold admits while the output queue is below α × free
// cells (Choudhury–Hahne; 0 = α 1).
func NewDynamicThreshold(alpha float64) BufferPolicy { return bufmgr.DynamicThreshold{Alpha: alpha} }

// NewDelayDriven admits while the cell's estimated queueing delay is
// within the occupancy-scaled target (0 = K × capacity cycles).
func NewDelayDriven(target int64) BufferPolicy { return bufmgr.DelayDriven{Target: target} }

// NewPushOut never refuses an arrival: when the buffer is full it evicts
// the head of the longest output queue, if strictly longer than the
// arrival's.
func NewPushOut() BufferPolicy { return bufmgr.PushOutLQF{} }

// ---- Observability (metrics registry, event tracing, profiling) ----

// MetricsRegistry is the allocation-free metrics registry: metrics are
// pre-registered at setup time and updated through live pointers (atomic
// counters/gauges/histograms, no map lookup on the hot path). Export with
// WritePrometheus (text exposition), WriteJSON / Snapshot (JSON API), or
// serve both with ServeDebug.
type MetricsRegistry = obs.Registry

// NewMetricsRegistry returns an empty registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// Metric primitives; see obs.Counter, obs.Gauge, obs.Histogram.
type (
	MetricCounter   = obs.Counter
	MetricGauge     = obs.Gauge
	MetricGaugeVec  = obs.GaugeVec
	MetricHistogram = obs.Histogram
)

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

// ObsEvent is one typed trace event; TraceSink consumes them.
type (
	ObsEvent     = obs.Event
	ObsEventKind = obs.EventKind
	TraceSink    = obs.Sink
)

// The event taxonomy.
const (
	EvWriteWave     = obs.EvWriteWave
	EvReadWave      = obs.EvReadWave
	EvCutThrough    = obs.EvCutThrough
	EvWaveEnd       = obs.EvWaveEnd
	EvStall         = obs.EvStall
	EvCRCRetransmit = obs.EvCRCRetransmit
)

// JSONLSink encodes events (and raw records such as TraceEvent) as one
// JSON object per line; MemSink buffers events in memory for tests.
type (
	JSONLSink = obs.JSONLSink
	MemSink   = obs.MemSink
)

// NewJSONLSink wraps w in a buffered JSONL encoder.
func NewJSONLSink(w io.Writer) *JSONLSink { return obs.NewJSONLSink(w) }

// JSONTracer returns a Switch.SetTracer callback that routes the fig. 5
// per-cycle TraceEvent stream through a JSONL sink as machine-readable
// records.
func JSONTracer(sink *JSONLSink) func(TraceEvent) { return core.JSONTracer(sink) }

// RuntimeGauges publishes heap/GC/goroutine gauges; Collect (or Start)
// samples the Go runtime into them.
type RuntimeGauges = obs.RuntimeGauges

// NewRuntimeGauges registers the runtime gauges on reg.
func NewRuntimeGauges(reg *MetricsRegistry) *RuntimeGauges { return obs.NewRuntimeGauges(reg) }

// ServeDebug starts the opt-in debug HTTP server on addr: /metrics
// (Prometheus text), /metrics.json (JSON snapshot), /debug/pprof/
// (net/http/pprof), plus periodic runtime gauges. It returns the bound
// address and a stop function.
func ServeDebug(addr string, reg *MetricsRegistry) (string, func(), error) {
	return obs.ServeDebug(addr, reg)
}

// ---- Fault tolerance and fault injection ----

// ErrBadConfig is the sentinel wrapped by every Config validation error;
// test with errors.Is.
var ErrBadConfig = core.ErrBadConfig

// ErrBadPlan is the sentinel wrapped by every fault-plan parse error.
var ErrBadPlan = fault.ErrBadPlan

// FaultPlan is a deterministic schedule of fault events.
type FaultPlan = fault.Plan

// FaultEvent is one scheduled fault.
type FaultEvent = fault.Event

// FaultKind discriminates fault events.
type FaultKind = fault.Kind

// Fault kinds, and the wildcard target value.
const (
	FaultMem         = fault.Mem
	FaultStuck       = fault.Stuck
	FaultInReg       = fault.InReg
	FaultLinkDrop    = fault.LinkDrop
	FaultLinkCorrupt = fault.LinkCorrupt
	FaultAny         = fault.Any
)

// ParseFaultPlan parses the "@cycle kind key=val…" plan text format.
func ParseFaultPlan(text string) (*FaultPlan, error) { return fault.Parse(text) }

// FaultRandomOptions parameterizes RandomFaultPlan.
type FaultRandomOptions = fault.RandomOptions

// RandomFaultPlan generates a seeded random plan (deterministic per seed).
func RandomFaultPlan(seed uint64, o FaultRandomOptions) *FaultPlan { return fault.Random(seed, o) }

// FaultEngine walks a plan and fires each event at its cycle.
type FaultEngine = fault.Engine

// FaultTarget is what an engine injects into.
type FaultTarget = fault.Target

// NewFaultEngine builds an engine over a plan; seed resolves "any" targets.
func NewFaultEngine(p *FaultPlan, seed uint64) *FaultEngine { return fault.NewEngine(p, seed) }

// FaultReport is the outcome of a fault run — a SimSession whose SimSpec
// carries a Plan — as SimSession.Report gathers it from the RunResult.
type FaultReport = fault.Report

// CRC16 is the CCITT checksum the link protocol appends to each cell.
func CRC16(words []Word) uint16 { return cell.CRC16(words) }

// ---- Baseline shared-buffer organizations ----

// WideConfig parameterizes the wide-memory baseline (fig. 3).
type WideConfig = widemem.Config

// WideSwitch is the wide-memory shared buffer with double input buffering
// and an optional explicit cut-through crossbar.
type WideSwitch = widemem.Switch

// NewWide builds a wide-memory switch.
func NewWide(cfg WideConfig) (*WideSwitch, error) { return widemem.New(cfg) }

// PrizmaConfig parameterizes the interleaved baseline (§5.3).
type PrizmaConfig = prizma.Config

// PrizmaSwitch is the PRIZMA-style one-cell-per-bank interleaved buffer.
type PrizmaSwitch = prizma.Switch

// NewPrizma builds an interleaved switch.
func NewPrizma(cfg PrizmaConfig) (*PrizmaSwitch, error) { return prizma.New(cfg) }

// ---- Segmentation and reassembly (§3.5 multi-quantum packets) ----

// Packet is a variable-size unit of m·K words, segmented into m cells.
type Packet = sar.Packet

// Segmenter slices packets into cells for injection.
type Segmenter = sar.Segmenter

// Reassembler rebuilds packets from switch departures.
type Reassembler = sar.Reassembler

// ReassembledPacket is one completed packet at an output.
type ReassembledPacket = sar.Done

// NewSegmenter builds a segmenter for an n-input switch with K-word
// cells of the given word width.
func NewSegmenter(n, k, width int) *Segmenter { return sar.NewSegmenter(n, k, width) }

// NewReassembler builds a reassembler for K-word cells.
func NewReassembler(k int) *Reassembler { return sar.NewReassembler(k) }

// ---- Traffic ----

// TrafficConfig parameterizes a cell stream; see traffic.Config.
type TrafficConfig = traffic.Config

// TrafficKind selects the arrival process.
type TrafficKind = traffic.Kind

// Arrival processes.
const (
	Bernoulli   = traffic.Bernoulli
	Bursty      = traffic.Bursty
	Hotspot     = traffic.Hotspot
	Saturation  = traffic.Saturation
	Permutation = traffic.Permutation
)

// NoArrival marks an idle input in arrival vectors.
const NoArrival = traffic.NoArrival

// CellStream produces word-serial cell arrivals: for the RTL models with
// their cell length, for the §2 architecture models with one-word cells
// (one cycle = one slot).
type CellStream = traffic.CellStream

// NewCellStream builds a word-serial cell stream for cells of cellLen
// words.
func NewCellStream(cfg TrafficConfig, cellLen int) (*CellStream, error) {
	return traffic.NewCellStream(cfg, cellLen)
}

// ---- Slot-level architecture simulators (§2) ----

// Arch is a slot-level switch architecture model.
type Arch = sim.Arch

// ArchResult summarizes a slot-level run.
type ArchResult = sim.Result

// NewInputFIFO builds FIFO input queueing (head-of-line blocking).
func NewInputFIFO(n, bufCap int) Arch { return sim.NewInputFIFO(n, bufCap) }

// VOQSchedulers are the scheduler names NewVOQ accepts.
var VOQSchedulers = []string{"islip", "pim", "2drr"}

// NewVOQ builds non-FIFO input buffering with the given scheduler, one of
// VOQSchedulers; any other name is an error.
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
		return nil, fmt.Errorf("pipemem: VOQ scheduler %q: want one of %s", scheduler, strings.Join(VOQSchedulers, ", "))
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
func RunArch(a Arch, cs *CellStream, warmup, measured int64) ArchResult {
	return sim.Run(a, cs, warmup, measured)
}

// ---- Wormhole (the [Dally90] comparison) ----

// WormholeConfig parameterizes the multistage wormhole network.
type WormholeConfig = wormhole.Config

// WormholeNet is the flit-level butterfly of input-buffered wormhole
// switches.
type WormholeNet = wormhole.Net

// WormholeResult summarizes a wormhole run.
type WormholeResult = wormhole.Result

// NewWormhole builds the network.
func NewWormhole(cfg WormholeConfig) (*WormholeNet, error) { return wormhole.New(cfg) }

// WormholeLaneConfig parameterizes the multi-lane (virtual channel)
// wormhole network — the lane sweep of [Dally90, fig. 8].
type WormholeLaneConfig = wormhole.LaneConfig

// WormholeLaneNet is the multi-lane wormhole network.
type WormholeLaneNet = wormhole.LaneNet

// NewWormholeLanes builds the multi-lane network.
func NewWormholeLanes(cfg WormholeLaneConfig) (*WormholeLaneNet, error) {
	return wormhole.NewLanes(cfg)
}

// RunWormholeLanes advances the multi-lane network warmup+measure cycles.
func RunWormholeLanes(w *WormholeLaneNet, warmup, measure int64) (WormholeResult, error) {
	return wormhole.Run(w, warmup, measure)
}

// RunWormhole advances the network for warmup+measure cycles.
func RunWormhole(w *WormholeNet, warmup, measure int64) (WormholeResult, error) {
	return wormhole.Run(w, warmup, measure)
}

// ---- Multistage networks of pipelined-memory switches ----

// FabricConfig parameterizes a k-ary butterfly of pipelined-memory
// switches with credit flow control and chained cut-through.
type FabricConfig = fabric.Config

// ClosConfig parameterizes a three-stage Clos network of pipelined-memory
// switches (C(n,n,n): n² terminals).
type ClosConfig = clos.Config

// Fabric is a multistage network, butterfly or Clos: one engine, two
// wirings.
type Fabric = engine.Engine

// FabricResult summarizes a run of either.
type FabricResult = engine.Result

// NewFabric builds the butterfly.
func NewFabric(cfg FabricConfig) (*Fabric, error) { return fabric.New(cfg) }

// NewClos builds the Clos network.
func NewClos(cfg ClosConfig) (*Fabric, error) { return clos.New(cfg) }

// RunFabric drives a network with terminal traffic for warmup+measure
// cycles.
func RunFabric(f *Fabric, tcfg TrafficConfig, warmup, measure int64) (FabricResult, error) {
	return f.Run(tcfg, warmup, measure)
}

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

// TelegraphosModels returns all three prototypes.
func TelegraphosModels() []TelegraphosModel { return telegraphos.Models() }

// NewTelegraphos builds a prototype's switch with the given per-link
// credit allowance (0 disables flow control).
func NewTelegraphos(m TelegraphosModel, creditsPerLink int) (*TelegraphosSwitch, error) {
	return telegraphos.NewSwitch(m, creditsPerLink)
}

// NewTelegraphosVC builds a prototype's switch with vcs virtual channels
// per outgoing link, each with its own credit allowance — the [KVES95]
// VC-level flow control and shared buffering organization.
func NewTelegraphosVC(m TelegraphosModel, vcs, creditsPerVC int) (*TelegraphosSwitch, error) {
	return telegraphos.NewVCSwitch(m, vcs, creditsPerVC)
}

// ---- Analytics and area models ----

// HOLSaturation returns the [KaHM87] input-queueing saturation throughput.
func HOLSaturation(n int) float64 { return analytic.HOLSaturation(n) }

// StaggeredInitiationDelay returns the §3.4 closed form (p/4)·(n-1)/n.
func StaggeredInitiationDelay(p float64, n int) float64 {
	return analytic.StaggeredInitiationDelay(p, n)
}

// OutputQueueWait returns the [KaHM87] output-queueing mean wait.
func OutputQueueWait(n int, p float64) float64 { return analytic.OutputQueueWait(n, p) }

// SharedBufferOccupancy returns the mean shared-buffer occupancy in cells
// at Bernoulli load p.
func SharedBufferOccupancy(n int, p float64) float64 {
	return analytic.SharedBufferOccupancy(n, p)
}

// Quantum is the §3.5 packet-size quantum calculator.
type Quantum = analytic.Quantum

// AggregateGbps returns buffer throughput for a width and cycle time.
func AggregateGbps(widthBits int, cycleNs float64) float64 {
	return analytic.AggregateGbps(widthBits, cycleNs)
}

// AreaModel is the §5.2 peripheral-area row model.
type AreaModel = area.RowModel

// Tech describes a CMOS process generation for the area model.
type Tech = area.Tech

// The paper's two processes.
var (
	TechES2u07 = area.ES2u07 // 0.7 µm standard cell (Telegraphos II)
	TechES2u10 = area.ES2u10 // 1.0 µm full custom (Telegraphos III)
)

// DefaultAreaModel returns coefficients fitted to the §5.2 anchors.
func DefaultAreaModel() AreaModel { return area.DefaultRowModel() }

// PrizmaCrossbarRatio is the §5.3 cost ratio M/(2n).
func PrizmaCrossbarRatio(ports, banks int) float64 { return area.PrizmaCrossbarRatio(ports, banks) }

// StageTiming is the §4.2–§4.4 critical-path timing model of one memory
// stage (fig. 7a/7b addressing, word-line length, bit-line splitting).
type StageTiming = area.StageTiming

// Address-path variants of fig. 7.
const (
	AddrDecoder     = area.Decoder
	AddrPipelineReg = area.PipelineReg
)

// TelegraphosIIITiming returns the §4.4 stage timing (16/10 ns).
func TelegraphosIIITiming() StageTiming { return area.TelegraphosIIITiming() }

// TelegraphosIITiming returns the §4.2 stage timing (40 ns).
func TelegraphosIITiming() StageTiming { return area.TelegraphosIITiming() }

// WideMemoryTiming returns an unsplit wide-memory stage's timing.
func WideMemoryTiming(ports, wordBits int) StageTiming {
	return area.WideMemoryTiming(ports, wordBits)
}

// CompareInputVsShared evaluates the fig. 9 floorplan comparison.
func CompareInputVsShared(n, w, cellsPerInput, sharedCells int) area.InputVsShared {
	return area.CompareInputVsShared(n, w, cellsPerInput, sharedCells)
}

// ---- Checkpoint/restore and the robustness session ----

// SimCheckpoint is the complete serialized state of a simulation run.
type SimCheckpoint = ckpt.Checkpoint

// SimSpec describes a checkpointable simulation: switch and traffic
// configuration, driven window, policy spec and optional fault plan.
type SimSpec = ckpt.Spec

// SimOptions configures a session's robustness machinery: checkpoint
// cadence, online invariant-audit cadence, and the no-progress watchdog.
type SimOptions = ckpt.Options

// SimSession owns one checkpointable run.
type SimSession = ckpt.Session

// CheckpointFormatVersion is the checkpoint file format this build reads
// and writes; restore across versions is refused.
const CheckpointFormatVersion = ckpt.FormatVersion

// ErrStalled marks a run aborted by the no-progress watchdog.
var ErrStalled = ckpt.ErrStalled

// NewSession builds a session from scratch.
func NewSession(spec SimSpec, opts SimOptions) (*SimSession, error) { return ckpt.New(spec, opts) }

// ResumeSession rebuilds the session captured in the checkpoint at path.
func ResumeSession(path string, opts SimOptions) (*SimSession, error) {
	return ckpt.Resume(path, opts)
}

// SaveCheckpoint writes a checkpoint file atomically (temp file + rename).
func SaveCheckpoint(path string, c *SimCheckpoint) error { return ckpt.Save(path, c) }

// LoadCheckpoint reads and validates a checkpoint file (magic, version,
// length, CRC) before decoding it.
func LoadCheckpoint(path string) (*SimCheckpoint, error) { return ckpt.Load(path) }
