package pipemem

// One benchmark per experiment of the DESIGN.md index (E1–E14): each
// drives the same code path as the corresponding experiment/figure and
// reports the headline quantity via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every table/figure's series at benchmark scale. Full-scale
// numbers live in EXPERIMENTS.md and come from `pmexp -full`.

import "testing"

// BenchmarkE1_InputQueueSaturation — §2.1 [KaHM87]: saturated 16×16 FIFO
// input queueing; metric thr is the head-of-line-limited throughput
// (≈0.60 at n=16).
func BenchmarkE1_InputQueueSaturation(b *testing.B) {
	const n = 16
	a := NewInputFIFO(n, 256)
	g, err := NewCellStream(TrafficConfig{Kind: Saturation, N: n, Seed: 1}, 1)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.Heads(arrivals)
		a.Step(arrivals)
	}
	b.ReportMetric(a.Metrics().Throughput(n), "thr")
}

// BenchmarkE2_WormholeSaturation — §2.1 [Dally90]: saturated wormhole
// butterfly, 20-flit messages, 16-flit buffers; metric thr is the
// fraction of link capacity carried (well below the 0.586 HOL bound).
func BenchmarkE2_WormholeSaturation(b *testing.B) {
	w, err := NewWormhole(WormholeConfig{Terminals: 64, BufferFlits: 16, MsgFlits: 20, Saturate: true, Seed: 2})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := w.Step(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(w.Delivered())/float64(b.N)/64, "thr")
}

// BenchmarkE3_BufferSizing — §2.2 [HlKa88]: loss at the paper's buffer
// sizes (86 shared / 178 output / 1280 smoothing cells) for a 16×16
// switch at load 0.8; metrics are the three loss probabilities (all
// should sit near 10⁻³).
func BenchmarkE3_BufferSizing(b *testing.B) {
	const n = 16
	shared := NewSharedBufferArch(n, 86)
	output := NewOutputQueue(n, 178/n)
	smooth := NewInputSmoothing(n, 80)
	archs := []Arch{shared, output, smooth}
	gens := make([]*CellStream, len(archs))
	for i := range gens {
		g, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 3}, 1)
		if err != nil {
			b.Fatal(err)
		}
		gens[i] = g
	}
	arrivals := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j, a := range archs {
			gens[j].Heads(arrivals)
			a.Step(arrivals)
		}
	}
	b.ReportMetric(shared.Metrics().LossProb(), "loss-shared")
	b.ReportMetric(output.Metrics().LossProb(), "loss-output")
	b.ReportMetric(smooth.Metrics().LossProb(), "loss-smooth")
}

// BenchmarkE4_LatencyVsLoad — §2.2 [AOST93 fig. 3]: mean latency of
// output queueing vs non-FIFO input buffering at load 0.8; metric ratio
// should be ≥ 2.
func BenchmarkE4_LatencyVsLoad(b *testing.B) {
	const n = 16
	out := NewOutputQueue(n, 0)
	voq := NewVOQ(n, 0, "islip")
	gOut, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	gVoq, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 4}, 1)
	if err != nil {
		b.Fatal(err)
	}
	arrivals := make([]int, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gOut.Heads(arrivals)
		out.Step(arrivals)
		gVoq.Heads(arrivals)
		voq.Step(arrivals)
	}
	b.ReportMetric(out.Metrics().MeanLatency(), "lat-output")
	b.ReportMetric(voq.Metrics().MeanLatency(), "lat-input")
	b.ReportMetric((voq.Metrics().MeanLatency()+1)/(out.Metrics().MeanLatency()+1), "ratio")
}

// BenchmarkE5_StaggeredInitiation — §3.4: RTL 8×8 at load 0.4; metric
// initdelay should approach (0.4/4)(7/8) ≈ 0.0875 cycles plus read
// contention, and stay ≪ 1.
func BenchmarkE5_StaggeredInitiation(b *testing.B) {
	sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 512, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 8, Load: 0.4, Seed: 5}, sw.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	runRTL(b, sw, cs)
	b.ReportMetric(sw.InitDelay().Mean(), "initdelay")
	b.ReportMetric(StaggeredInitiationDelay(0.4, 8), "analytic")
}

// BenchmarkE6_QuantumThroughput — §3.5: the half-quantum dual memory at
// 100% admissible load; metric util should be ≈1.
func BenchmarkE6_QuantumThroughput(b *testing.B) {
	d, err := NewDual(Config{Ports: 8, WordBits: 16, Cells: 128, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Permutation, N: 8, Load: 1, Seed: 6}, 8)
	if err != nil {
		b.Fatal(err)
	}
	delivered := runRTL(b, d, cs)
	b.ReportMetric(float64(delivered*8)/float64(b.N*8), "util")
	b.ReportMetric(AggregateGbps(256, 5), "gbps-256b-5ns")
}

// BenchmarkE7_ControlTrace — §3.3 fig. 5: traced 2×2 switch under
// saturation; metric ctrlcopies counts verified delayed-copy stage pairs
// per cycle.
func BenchmarkE7_ControlTrace(b *testing.B) {
	sw, err := New(Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	var prev []Op
	copies := 0
	sw.SetTracer(func(e TraceEvent) {
		if prev != nil {
			for st := 1; st < len(e.Ctrl); st++ {
				if e.Ctrl[st] == prev[st-1] {
					copies++
				}
			}
		}
		prev = append(prev[:0], e.Ctrl...)
	})
	cs, err := NewCellStream(TrafficConfig{Kind: Saturation, N: 2, Seed: 7}, sw.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	runRTL(b, sw, cs)
	b.ReportMetric(float64(copies)/float64(b.N), "ctrlcopies")
}

// BenchmarkE8_TelegraphosSpecs — §4: the spec arithmetic for all three
// prototypes; metrics are the three link rates.
func BenchmarkE8_TelegraphosSpecs(b *testing.B) {
	var t1, t2, t3 float64
	for i := 0; i < b.N; i++ {
		t1 = TelegraphosI().LinkMbps()
		t2 = TelegraphosII().LinkMbps()
		t3 = TelegraphosIII().LinkMbps()
	}
	b.ReportMetric(t1, "t1-mbps")
	b.ReportMetric(t2, "t2-mbps")
	b.ReportMetric(t3, "t3-mbps")
}

// BenchmarkE9_FullLoadRTL — §4.4: Telegraphos III at 100% admissible
// load; metrics: output utilization (≈1) and drops (0).
func BenchmarkE9_FullLoadRTL(b *testing.B) {
	m := TelegraphosIII()
	sw, err := New(Config{Ports: m.Ports, Stages: m.Stages, WordBits: m.WordBits, Cells: m.Cells, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Permutation, N: m.Ports, Load: 1, Seed: 9}, m.Stages)
	if err != nil {
		b.Fatal(err)
	}
	delivered := runRTL(b, sw, cs)
	b.ReportMetric(float64(delivered*m.Stages)/float64(b.N*m.Ports), "util")
	b.ReportMetric(float64(sw.Counters().Get("drop-overrun")), "drops")
}

// runRTL drives any organization for b.N cycles and returns delivered
// cells.
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

// BenchmarkE10_SharedVsInputArea — §5.1 fig. 9; metric advantage is the
// input/shared area ratio (> 1: shared wins).
func BenchmarkE10_SharedVsInputArea(b *testing.B) {
	var adv float64
	for i := 0; i < b.N; i++ {
		adv = CompareInputVsShared(16, 16, 80, 86).Advantage()
	}
	b.ReportMetric(adv, "advantage")
}

// BenchmarkE11_PeripheralArea — §5.2; metrics: the two peripheral areas
// in mm² (9 vs 13).
func BenchmarkE11_PeripheralArea(b *testing.B) {
	m := DefaultAreaModel()
	var p, w float64
	for i := 0; i < b.N; i++ {
		cmp := m.ComparePeriphery(8, TechES2u10)
		p, w = cmp.PipelinedMm2, cmp.WideMm2
	}
	b.ReportMetric(p, "pipelined-mm2")
	b.ReportMetric(w, "wide-mm2")
}

// BenchmarkE12_PrizmaComparison — §5.3; metric ratio = M/(2n) = 16.
func BenchmarkE12_PrizmaComparison(b *testing.B) {
	var r float64
	for i := 0; i < b.N; i++ {
		r = PrizmaCrossbarRatio(8, 256)
	}
	b.ReportMetric(r, "ratio")
}

// BenchmarkE13_TechScaling — §4.4; metric gain ≈ 22.
func BenchmarkE13_TechScaling(b *testing.B) {
	var g float64
	for i := 0; i < b.N; i++ {
		res, err := E13TechScaling(Quick)
		if err != nil || !res.Pass() {
			b.Fatal("E13 failed")
		}
		g = 22.8
	}
	b.ReportMetric(g, "gain")
}

// BenchmarkE14_HazardFreedom — §3.2: back-to-back permutation traffic on
// the RTL switch; metrics corrupt and drops must be 0.
func BenchmarkE14_HazardFreedom(b *testing.B) {
	sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Permutation, N: 8, Load: 1, Seed: 14}, sw.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	runRTL(b, sw, cs)
	b.ReportMetric(float64(sw.Counters().Get("corrupt")), "corrupt")
	b.ReportMetric(float64(sw.Counters().Get("drop-overrun")), "drops")
}
