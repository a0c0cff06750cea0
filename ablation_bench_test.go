package pipemem

// Ablation benchmarks for the design choices DESIGN.md calls out: each
// isolates one mechanism of the pipelined memory (or of the fabric built
// from it) and reports the with/without deltas as metrics.

import "testing"

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
// reports output utilization at full load: without it, write waves steal
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
		g, err := NewGenerator(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.9, Seed: 23})
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			g.Step(arrivals)
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
		b.ReportMetric(v, "thr-credits"+string(rune('0'+credits)))
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
		g, err := NewGenerator(cfg)
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			g.Step(arrivals)
			a.Step(arrivals)
		}
		b.ReportMetric(a.Metrics().LossProb(), "loss-burst"+string(rune('0'+int(burst)%10)))
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
		gen, err := NewGenerator(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.95, Seed: 26})
		if err != nil {
			b.Fatal(err)
		}
		arrivals := make([]int, n)
		for i := 0; i < b.N; i++ {
			gen.Step(arrivals)
			a.Step(arrivals)
		}
		b.ReportMetric(a.Metrics().LossProb(), "loss-g"+string(rune('0'+g%10)))
	}
}

// BenchmarkAblationHalfQuantum compares the canonical 2n-word-cell switch
// with the §3.5 dual half-quantum organization at equal offered load:
// same utilization, half the cell granularity.
func BenchmarkAblationHalfQuantum(b *testing.B) {
	sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Permutation, N: 8, Load: 1, Seed: 27}, 16)
	if err != nil {
		b.Fatal(err)
	}
	fullDelivered := runRTL(b, sw, cs)

	d, err := NewDual(Config{Ports: 8, WordBits: 16, Cells: 128, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs2, err := NewCellStream(TrafficConfig{Kind: Permutation, N: 8, Load: 1, Seed: 27}, 8)
	if err != nil {
		b.Fatal(err)
	}
	halfDelivered := runRTL(b, d, cs2) // resets the timer, and with it the metrics
	b.ReportMetric(float64(fullDelivered*16)/float64(b.N*8), "util-full")
	b.ReportMetric(float64(halfDelivered*8)/float64(b.N*8), "util-half")
}

// BenchmarkAblationWormholeLanes sweeps virtual-channel lanes at constant
// total flit storage — the [Dally90, fig. 8] family: saturation rises
// with lanes.
func BenchmarkAblationWormholeLanes(b *testing.B) {
	thr := map[int]float64{}
	for _, lanes := range []int{1, 2, 4} {
		w, err := NewWormholeLanes(WormholeLaneConfig{
			Terminals: 64, BufferFlits: 16, MsgFlits: 20,
			Lanes: lanes, Saturate: true, Seed: 28,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer() // clears metrics; reported after the sweep
		for i := 0; i < b.N; i++ {
			if err := w.Step(); err != nil {
				b.Fatal(err)
			}
		}
		thr[lanes] = float64(w.Delivered()) / float64(b.N) / 64
	}
	for lanes, v := range thr {
		b.ReportMetric(v, "thr-lanes"+string(rune('0'+lanes)))
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

// BenchmarkAblationClosMiddles sweeps the populated middle-stage count of
// the Clos network — the classic sizing curve as a bench series.
func BenchmarkAblationClosMiddles(b *testing.B) {
	thr := map[int]float64{}
	for _, m := range []int{1, 2, 4} {
		f, err := NewClos(ClosConfig{Radix: 4, Middles: m, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true})
		if err != nil {
			b.Fatal(err)
		}
		cs, err := NewCellStream(TrafficConfig{Kind: Saturation, N: f.Terminals(), Seed: 31}, f.CellWords())
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer() // clears metrics; reported after the sweep
		if err := f.Drive(cs, int64(b.N)); err != nil {
			b.Fatal(err)
		}
		thr[m] = float64(f.Delivered()*int64(f.CellWords())) / float64(b.N*f.Terminals())
	}
	for m, v := range thr {
		b.ReportMetric(v, "thr-middles"+string(rune('0'+m)))
	}
}
