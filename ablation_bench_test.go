package pipemem

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism of the pipelined memory (or of the fabric built
// from it) and reports the with/without deltas as metrics. Every
// configuration runs for a fixed, named number of cycles whatever
// -benchtime says, and one iteration is one whole comparison: the metrics
// depend on the seed alone, ns/op is the cost of the comparison.

import (
	"strconv"
	"testing"

	"pipemem/internal/traffic"
)

// The run length of each configuration an ablation compares, per model.
// The slot-level and fabric runs are shorter because a slot of the 16-port
// VOQ and a cycle of the 16-terminal fabric cost 10–20 times a switch
// cycle, and `make bench` runs every comparison a hundred times.
const (
	// ablationCycles: the single cycle-accurate switch.
	ablationCycles = 20_000
	// ablationSlots: the §2 slot-level architectures.
	ablationSlots = 5_000
	// ablationFabricCycles: the multistage fabric.
	ablationFabricCycles = 2_000
)

// BenchmarkAblationCutThrough toggles §3.3's automatic cut-through and
// reports the light-load latency gap (≈ one cell time, for free).
func BenchmarkAblationCutThrough(b *testing.B) {
	run := func(cut bool) float64 {
		sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: cut})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 8, Load: 0.2, Seed: 21}, sw.Config().Stages)
		if err != nil {
			b.Fatal(err)
		}
		runRTL(sw, cs)
		return sw.CutLatency().Mean()
	}
	var ct, sf float64
	for i := 0; i < b.N; i++ {
		ct, sf = run(true), run(false)
	}
	b.ReportMetric(ct, "lat-cutthrough")
	b.ReportMetric(sf, "lat-storefwd")
	b.ReportMetric(sf-ct, "saved-cycles")
}

// BenchmarkAblationReadPriority toggles §3.3's read-first arbitration and
// reports output utilization and lost cells with read priority and with
// write priority, under uniform load 0.95 into a 64-cell buffer that runs
// near full. There a write wave that takes the cycle's one initiation slot
// leaves an idle outgoing link without its read wave, the buffer drains
// more slowly and overflows more often: over 20,000 cycles utilization
// reads 0.9411 with read priority and 0.9193 without, and 35 cells are
// lost against 242. (Full-load permutation traffic, which never queues two
// cells for one output, reads 0.9999 either way.)
func BenchmarkAblationReadPriority(b *testing.B) {
	run := func(noReadPrio bool) (util, drops float64) {
		sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true, NoReadPriority: noReadPrio})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 8, Load: 0.95, Seed: 22}, sw.Config().Stages)
		if err != nil {
			b.Fatal(err)
		}
		delivered := runRTL(sw, cs)
		return float64(delivered*sw.Config().Stages) / float64(ablationCycles*8), float64(sw.DroppedCells())
	}
	var readUtil, readDrops, writeUtil, writeDrops float64
	for i := 0; i < b.N; i++ {
		readUtil, readDrops = run(false)
		writeUtil, writeDrops = run(true)
	}
	b.ReportMetric(readUtil, "util-readprio")
	b.ReportMetric(writeUtil, "util-writeprio")
	b.ReportMetric(readDrops, "drops-readprio")
	b.ReportMetric(writeDrops, "drops-writeprio")
}

// BenchmarkAblationSchedulers compares the three matching schedulers of
// non-FIFO input buffering at load 0.9 — the §2.1 scheduler-complexity
// discussion quantified.
func BenchmarkAblationSchedulers(b *testing.B) {
	const n = 16
	scheds := []string{"islip", "pim", "2drr"}
	lat := make([]float64, len(scheds))
	for i := 0; i < b.N; i++ {
		for j, sched := range scheds {
			a, err := NewVOQ(n, 0, sched)
			if err != nil {
				b.Fatal(err)
			}
			lat[j] = runSlots(b, a, TrafficConfig{Kind: Bernoulli, N: n, Load: 0.9, Seed: 23}).Metrics().MeanLatency()
		}
	}
	for j, sched := range scheds {
		b.ReportMetric(lat[j], "lat-"+sched)
	}
}

// BenchmarkAblationFabricCredits sweeps the per-link credit allowance of
// the multistage fabric and reports saturation throughput — the buffer-
// per-node versus throughput trade.
func BenchmarkAblationFabricCredits(b *testing.B) {
	allowances := []int{1, 2, 4}
	thr := make([]float64, len(allowances))
	for i := 0; i < b.N; i++ {
		for j, credits := range allowances {
			f, err := NewFabric(FabricConfig{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: credits, CutThrough: true})
			if err != nil {
				b.Fatal(err)
			}
			cs, err := NewCellStream(TrafficConfig{Kind: Saturation, N: 16, Seed: 24}, f.CellWords())
			if err != nil {
				b.Fatal(err)
			}
			if err := f.Drive(cs, ablationFabricCycles); err != nil {
				b.Fatal(err)
			}
			thr[j] = float64(f.Delivered()*int64(f.CellWords())) / float64(ablationFabricCycles*16)
		}
	}
	for j, credits := range allowances {
		b.ReportMetric(thr[j], "thr-credits"+strconv.Itoa(credits))
	}
}

// BenchmarkAblationBurstiness drives the shared buffer with increasingly
// bursty traffic at fixed load and reports loss — quantifying §2.1's
// warning that "when the traffic is bursty … saturation occurs sooner".
func BenchmarkAblationBurstiness(b *testing.B) {
	const n = 16
	bursts := []float64{1, 4, 16}
	loss := make([]float64, len(bursts))
	for i := 0; i < b.N; i++ {
		for j, burst := range bursts {
			cfg := TrafficConfig{Kind: Bursty, N: n, Load: 0.8, BurstLen: burst, Seed: 25}
			if burst == 1 {
				cfg = TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 25}
			}
			loss[j] = runSlots(b, NewSharedBufferArch(n, 128), cfg).Metrics().LossProb()
		}
	}
	for j, burst := range bursts {
		b.ReportMetric(loss[j], "loss-burst"+strconv.Itoa(int(burst)))
	}
}

// BenchmarkAblationBlockCrosspoint sweeps the block size g of
// block-crosspoint buffering between the crosspoint (g=1) and fully
// shared (g=n) extremes at equal total memory (§2.2).
func BenchmarkAblationBlockCrosspoint(b *testing.B) {
	const n, total = 16, 256
	groups := []int{1, 4, 16}
	loss := make([]float64, len(groups))
	for i := 0; i < b.N; i++ {
		for j, g := range groups {
			var a Arch
			switch g {
			case 1:
				a = NewCrosspoint(n, total/(n*n))
			case n:
				a = NewSharedBufferArch(n, total)
			default:
				blocks := (n / g) * (n / g)
				var err error
				if a, err = NewBlockCrosspoint(n, g, total/blocks); err != nil {
					b.Fatal(err)
				}
			}
			loss[j] = runSlots(b, a, TrafficConfig{Kind: Bernoulli, N: n, Load: 0.95, Seed: 26}).Metrics().LossProb()
		}
	}
	for j, g := range groups {
		b.ReportMetric(loss[j], "loss-g"+strconv.Itoa(g))
	}
}

// BenchmarkAblationMulticastFanout measures multicast copies delivered
// per stored cell across fan-outs — the store-once economy.
func BenchmarkAblationMulticastFanout(b *testing.B) {
	run := func() (copies, peak int) {
		sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true})
		if err != nil {
			b.Fatal(err)
		}
		k := sw.Config().Stages
		var seq uint64
		for c := 0; c < ablationCycles; c++ {
			var heads []*Cell
			if c%(3*k) == 0 { // paced source: fan-out 7 loads every output at 16/48
				seq++
				x := NewCell(seq, 0, 1, k, 16)
				x.Copies = []int{2, 3, 4, 5, 6, 7}
				heads = make([]*Cell, 8)
				heads[0] = x
			}
			sw.Tick(heads)
			copies += len(sw.Drain())
			if used := 64 - sw.FreeCells(); used > peak {
				peak = used
			}
		}
		return copies, peak
	}
	var copies, peak int
	for i := 0; i < b.N; i++ {
		copies, peak = run()
	}
	b.ReportMetric(float64(copies), "copies")
	b.ReportMetric(float64(peak), "peak-addrs")
}

// runRTL drives any organization for ablationCycles cycles and returns
// the delivered cells.
func runRTL(org Organization, cs *traffic.CellStream) int {
	g := org.Geometry()
	heads := make([]int, g.Ports)
	hc := make([]*Cell, g.Ports)
	var seq uint64
	delivered := 0
	org.SetDepartureSink(func(*Cell, int, int64, int64, bool) { delivered++ })
	defer org.SetDepartureSink(nil)
	for c := 0; c < ablationCycles; c++ {
		cs.Heads(heads)
		org.Tick(headCells(heads, hc, &seq, g))
	}
	return delivered
}

// runSlots drives a slot-level architecture with one-word cells of the
// given traffic for ablationSlots slots and returns it.
func runSlots(b *testing.B, a Arch, tc TrafficConfig) Arch {
	g, err := NewCellStream(tc, 1)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]int, a.N())
	for c := 0; c < ablationSlots; c++ {
		g.Heads(arrivals)
		a.Step(arrivals)
	}
	return a
}
