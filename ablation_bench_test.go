package pipemem

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism of the pipelined memory (or of the fabric built
// from it) and reports the with/without deltas as metrics.

import (
	"strconv"
	"testing"
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
		runRTL(b, sw, cs)
		return sw.CutLatency().Mean()
	}
	ct := run(true)
	sf := run(false)
	b.ReportMetric(ct, "lat-cutthrough")
	b.ReportMetric(sf, "lat-storefwd")
	b.ReportMetric(sf-ct, "saved-cycles")
}

// BenchmarkAblationReadPriority toggles §3.3's read-first arbitration and
// reports output utilization under full-load permutation traffic, with
// read priority and with write priority. The two read alike (0.9992 and
// 0.9991 at 20,000 cycles): this load does not show write waves taking
// initiation slots that outgoing links needed.
func BenchmarkAblationReadPriority(b *testing.B) {
	run := func(noReadPrio bool) float64 {
		sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true, NoReadPriority: noReadPrio})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := NewCellStream(TrafficConfig{Kind: Permutation, N: 8, Load: 1, Seed: 22}, sw.Config().Stages)
		if err != nil {
			b.Fatal(err)
		}
		delivered := runRTL(b, sw, cs)
		return float64(delivered*sw.Config().Stages) / float64(b.N*8)
	}
	// runRTL resets the timer, which also clears reported metrics, so
	// run both configurations before reporting.
	readPrio := run(false)
	writePrio := run(true)
	b.ReportMetric(readPrio, "util-readprio")
	b.ReportMetric(writePrio, "util-writeprio")
}

// BenchmarkAblationSchedulers compares the three matching schedulers of
// non-FIFO input buffering at load 0.9 — the §2.1 scheduler-complexity
// discussion quantified.
func BenchmarkAblationSchedulers(b *testing.B) {
	const n = 16
	for _, sched := range []string{"islip", "pim", "2drr"} {
		a := NewVOQ(n, 0, sched)
		g, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.9, Seed: 23}, 1)
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			g.Heads(arrivals)
			a.Step(arrivals)
		}
		b.ReportMetric(a.Metrics().MeanLatency(), "lat-"+sched)
	}
}

// BenchmarkAblationFabricCredits sweeps the per-link credit allowance of
// the multistage fabric and reports saturation throughput — the buffer-
// per-node versus throughput trade.
func BenchmarkAblationFabricCredits(b *testing.B) {
	thr := map[int]float64{}
	for _, credits := range []int{1, 2, 4} {
		f, err := NewFabric(FabricConfig{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: credits, CutThrough: true})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := NewCellStream(TrafficConfig{Kind: Saturation, N: 16, Seed: 24}, f.CellWords())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer() // also clears metrics; they are reported at the end
		if err := f.Drive(cs, int64(b.N)); err != nil {
			b.Fatal(err)
		}
		thr[credits] = float64(f.Delivered()*int64(f.CellWords())) / float64(b.N*16)
	}
	for credits, v := range thr {
		b.ReportMetric(v, "thr-credits"+strconv.Itoa(credits))
	}
}

// BenchmarkAblationBurstiness drives the shared buffer with increasingly
// bursty traffic at fixed load and reports loss — quantifying §2.1's
// warning that "when the traffic is bursty … saturation occurs sooner".
func BenchmarkAblationBurstiness(b *testing.B) {
	const n = 16
	for _, burst := range []float64{1, 4, 16} {
		a := NewSharedBufferArch(n, 128)
		cfg := TrafficConfig{Kind: Bursty, N: n, Load: 0.8, BurstLen: burst, Seed: 25}
		if burst == 1 {
			cfg = TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 25}
		}
		g, err := NewCellStream(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			g.Heads(arrivals)
			a.Step(arrivals)
		}
		b.ReportMetric(a.Metrics().LossProb(), "loss-burst"+strconv.Itoa(int(burst)))
	}
}

// BenchmarkAblationBlockCrosspoint sweeps the block size g of
// block-crosspoint buffering between the crosspoint (g=1) and fully
// shared (g=n) extremes at equal total memory (§2.2).
func BenchmarkAblationBlockCrosspoint(b *testing.B) {
	const n, total = 16, 256
	for _, g := range []int{1, 4, 16} {
		var a Arch
		switch g {
		case 1:
			a = NewCrosspoint(n, total/(n*n))
		case n:
			a = NewSharedBufferArch(n, total)
		default:
			blocks := (n / g) * (n / g)
			a = NewBlockCrosspoint(n, g, total/blocks)
		}
		gen, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.95, Seed: 26}, 1)
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			gen.Heads(arrivals)
			a.Step(arrivals)
		}
		b.ReportMetric(a.Metrics().LossProb(), "loss-g"+strconv.Itoa(g))
	}
}

// BenchmarkAblationMulticastFanout measures multicast copies delivered
// per stored cell across fan-outs — the store-once economy.
func BenchmarkAblationMulticastFanout(b *testing.B) {
	sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	k := sw.Config().Stages
	var seq uint64
	copies := 0
	peak := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var heads []*Cell
		if i%(3*k) == 0 { // paced source: fan-out 7 loads every output at 16/48
			seq++
			c := NewCell(seq, 0, 1, k, 16)
			c.Copies = []int{2, 3, 4, 5, 6, 7}
			heads = make([]*Cell, 8)
			heads[0] = c
		}
		sw.Tick(heads)
		copies += len(sw.Drain())
		if used := 64 - sw.FreeCells(); used > peak {
			peak = used
		}
	}
	b.ReportMetric(float64(copies), "copies")
	b.ReportMetric(float64(peak), "peak-addrs")
}

// runRTL drives any organization for b.N cycles and returns delivered
// cells. It resets the timer, and with it every metric reported so far.
func runRTL(b *testing.B, org Organization, cs *CellStream) int {
	g := org.Geometry()
	heads := make([]int, g.Ports)
	hc := make([]*Cell, g.Ports)
	var seq uint64
	delivered := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Heads(heads)
		org.Tick(headCells(heads, hc, &seq, g))
		delivered += len(org.Drain())
	}
	return delivered
}
