package pipemem_test

import (
	"fmt"
	"log"
	"math/rand/v2"

	"pipemem"
)

// Example builds the Telegraphos III-sized switch, pushes admissible
// full-rate traffic through it, and prints the invariants the paper
// promises: full utilization, zero loss, 2-cycle cut-through.
func Example() {
	sw, err := pipemem.New(pipemem.Config{
		Ports: 8, WordBits: 16, Cells: 256, CutThrough: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	stream, err := pipemem.NewCellStream(pipemem.TrafficConfig{
		Kind: pipemem.Permutation, N: 8, Load: 1, Seed: 1,
	}, sw.Config().Stages)
	if err != nil {
		log.Fatal(err)
	}
	res, err := pipemem.RunTraffic(sw, stream, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("utilization: %.2f\n", res.Utilization)
	fmt.Printf("dropped: %d, corrupt: %d\n", res.Dropped, res.Corrupt)
	fmt.Printf("min cut-through latency: %d cycles\n", res.MinCutLatency)
	// Output:
	// utilization: 1.00
	// dropped: 0, corrupt: 0
	// min cut-through latency: 2 cycles
}

// ExampleStaggeredInitiationDelay reproduces §3.4's worked example: at
// 40% load the one-wave-per-cycle restriction costs about a tenth of a
// clock cycle.
func ExampleStaggeredInitiationDelay() {
	for _, p := range []float64{0.2, 0.4, 0.8} {
		fmt.Printf("p=%.1f: %.4f cycles\n", p, pipemem.StaggeredInitiationDelay(p, 1_000_000))
	}
	// Output:
	// p=0.2: 0.0500 cycles
	// p=0.4: 0.1000 cycles
	// p=0.8: 0.2000 cycles
}

// ExampleQuantum shows the §3.5 packet-size-quantum arithmetic for the
// Telegraphos III geometry.
func ExampleQuantum() {
	q := pipemem.Quantum{Links: 8, WordBits: 16}
	fmt.Printf("%d words = %d bits = %d bytes\n", q.Words(), q.Bits(), q.Bytes())
	fmt.Printf("aggregate at 16 ns: %.0f Gb/s\n", pipemem.AggregateGbps(q.Bits(), 16))
	// Output:
	// 16 words = 256 bits = 32 bytes
	// aggregate at 16 ns: 16 Gb/s
}

// ExampleHOLSaturation prints the [KaHM87] head-of-line limits quoted in
// §2.1.
func ExampleHOLSaturation() {
	for _, n := range []int{2, 8, 1024} {
		fmt.Printf("n=%d: %.4f\n", n, pipemem.HOLSaturation(n))
	}
	// Output:
	// n=2: 0.7500
	// n=8: 0.6184
	// n=1024: 0.5858
}

// ExampleTelegraphosIII prints the §4.4 prototype's derived
// specifications.
func ExampleTelegraphosIII() {
	m := pipemem.TelegraphosIII()
	fmt.Printf("%.0f Mb/s per link worst case\n", m.LinkMbps())
	fmt.Printf("%.0f Kbit buffer, %d-byte packets\n", m.BufferKbit(), m.PacketBytes())
	// Output:
	// 1000 Mb/s per link worst case
	// 64 Kbit buffer, 32-byte packets
}

// ExampleNewSegmenter pushes a 3-quantum packet through the switch via
// the §3.5 segmentation layer.
func ExampleNewSegmenter() {
	sw, err := pipemem.New(pipemem.Config{Ports: 2, WordBits: 16, Cells: 16, CutThrough: true})
	if err != nil {
		log.Fatal(err)
	}
	k := sw.Config().Stages
	seg := pipemem.NewSegmenter(2, k, 16)
	rea := pipemem.NewReassembler(k)

	pkt := &pipemem.Packet{ID: 1, Src: 0, Dst: 1, Words: make([]pipemem.Word, 3*k)}
	for i := range pkt.Words {
		pkt.Words[i] = pipemem.Word(i)
	}
	cells, err := seg.Offer(pkt)
	if err != nil {
		log.Fatal(err)
	}
	rea.Expect(pkt, 1)

	busy := 0
	for cyc := 0; cyc < 20*k; cyc++ {
		var heads []*pipemem.Cell
		if busy > 0 {
			busy--
		} else if c := seg.Next(0); c != nil {
			heads = []*pipemem.Cell{c, nil}
			busy = k - 1
		}
		sw.Tick(heads)
		for _, d := range sw.Drain() {
			if err := rea.Accept(d); err != nil {
				log.Fatal(err)
			}
		}
	}
	for _, done := range rea.Drain() {
		fmt.Printf("packet %d: %d cells, reassembled on output %d\n",
			done.Packet.ID, cells, done.Output)
	}
	// Output:
	// packet 1: 3 cells, reassembled on output 1
}

// ExampleNewFabric composes pipelined-memory switches into a 16-terminal
// butterfly with credit flow control and sends one cell across it.
func ExampleNewFabric() {
	f, err := pipemem.NewFabric(pipemem.FabricConfig{
		Terminals: 16, Radix: 2, WordBits: 16,
		SwitchCells: 16, Credits: 2, CutThrough: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	f.Inject(3, 12, 1) // terminal 3 → terminal 12
	for i := 0; i < 200; i++ {
		if err := f.Step(); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("delivered %d cell(s) across %d hops, head latency %d cycles\n",
		f.Delivered(), 4, f.Latency().Quantile(0))
	// Output:
	// delivered 1 cell(s) across 4 hops, head latency 11 cycles
}

// ExampleSwitch_SetVCGate shows VC-level flow control: VC 0 is stalled,
// VC 1 keeps flowing on the same output link.
func ExampleSwitch_SetVCGate() {
	sw, err := pipemem.New(pipemem.Config{
		Ports: 2, WordBits: 16, Cells: 16, CutThrough: true, VCs: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	sw.SetVCGate(func(out, vc int) bool { return vc != 0 }) // VC 0 has no credit
	k := sw.Config().Stages

	mk := func(seq uint64, src, vc int) *pipemem.Cell {
		c := pipemem.NewCell(seq, src, 0, k, 16)
		c.VC = vc
		return c
	}
	sw.Tick([]*pipemem.Cell{mk(1, 0, 0), mk(2, 1, 1)})
	for i := 0; i < 8*k; i++ {
		sw.Tick(nil)
	}
	for _, d := range sw.Drain() {
		fmt.Printf("departed: cell %d on VC %d\n", d.Cell.Seq, d.VC)
	}
	fmt.Printf("parked for output 0: %d cell(s)\n", sw.QueuedFor(0))
	// Output:
	// departed: cell 2 on VC 1
	// parked for output 0: 1 cell(s)
}

// ExampleSwitch_SetVCWeights shares one output link between two traffic
// classes: "video" on VC 0 with weighted round-robin weight 3 and "bulk"
// on VC 1 with weight 1 ([KaSC91]'s WRR over [KVES95]'s per-VC queues).
// Each scenario runs a fresh 4×4 switch for 200 cell times, short enough
// that the 256-cell pool absorbs the 2× oversubscription: under contention
// the link divides 3:1, and a class alone takes every cycle. When the
// oversubscription persists the pool fills, and admission (a buffer
// policy) decides in place of the scheduler.
func ExampleSwitch_SetVCWeights() {
	scenario := func(video, bulk bool) (perVC [2]int) {
		sw, err := pipemem.New(pipemem.Config{
			Ports: 4, WordBits: 16, Cells: 256, CutThrough: true, VCs: 2,
		})
		if err != nil {
			log.Fatal(err)
		}
		if err := sw.SetVCWeights(0, []int{3, 1}); err != nil {
			log.Fatal(err)
		}
		sw.SetDepartureSink(func(c *pipemem.Cell, out int, headIn, headOut int64, intact bool) {
			perVC[c.VC]++
		})
		k := sw.Config().Stages
		var seq uint64
		send := func(src, vc int) *pipemem.Cell {
			seq++
			c := pipemem.NewCell(seq, src, 0, k, 16)
			c.VC = vc
			return c
		}
		for cyc := 0; cyc < 200*k; cyc++ {
			var heads []*pipemem.Cell
			if cyc%k == 0 {
				heads = make([]*pipemem.Cell, 4)
				if video {
					heads[0] = send(0, 0)
				}
				if bulk {
					heads[1] = send(1, 1)
				}
			}
			sw.Tick(heads)
		}
		return perVC
	}
	for _, s := range []struct {
		name        string
		video, bulk bool
	}{{"both", true, true}, {"video idle", false, true}, {"bulk idle", true, false}} {
		n := scenario(s.video, s.bulk)
		fmt.Printf("%-10s  video %3d  bulk %3d\n", s.name, n[0], n[1])
	}
	// Output:
	// both        video 149  bulk  50
	// video idle  video   0  bulk 199
	// bulk idle   video 199  bulk   0
}

// ExampleTelegraphosSwitch_SetMulticastRoute multicasts from port 0 of a
// Telegraphos III switch to the seven other ports. The payload is stored
// once and only descriptors fan out, one per destination: the economy
// that makes a shared buffer a natural multicast engine, where a
// crosspoint design would hold seven copies of the payload.
func ExampleTelegraphosSwitch_SetMulticastRoute() {
	model := pipemem.TelegraphosIII()
	sw, err := pipemem.NewTelegraphos(model, 0)
	if err != nil {
		log.Fatal(err)
	}
	n := model.Ports
	var group []int
	for o := 1; o < n; o++ {
		group = append(group, o)
	}
	if err := sw.SetMulticastRoute(0x700, group...); err != nil {
		log.Fatal(err)
	}

	// Port 0 sends a multicast packet every 24 cycles, two thirds of every
	// member link; ports 1…n-1 send staggered unicast packets to port 0
	// (header 0) once every 256 cycles each.
	var seq uint64
	busy := make([]int, n)
	packets, copies, peak := 0, 0, 0
	packet := func(header uint64) *pipemem.TelegraphosPacket {
		seq++
		return &pipemem.TelegraphosPacket{Header: header, Payload: make([]pipemem.Word, model.Stages-1), Seq: seq}
	}
	for cyc := 0; cyc < 20_000+64*model.Stages; cyc++ {
		var pkts []*pipemem.TelegraphosPacket
		if cyc < 20_000 {
			pkts = make([]*pipemem.TelegraphosPacket, n)
			for i := range pkts {
				if busy[i] > 0 {
					busy[i]--
					continue
				}
				switch {
				case i == 0 && cyc%24 == 0:
					pkts[i] = packet(0x700)
					packets++
				case i > 0 && cyc%256 == i*16:
					pkts[i] = packet(0)
				default:
					continue
				}
				busy[i] = model.Stages - 1
			}
		}
		sw.Tick(pkts)
		copies += len(sw.Drain())
		peak = max(peak, model.Cells-sw.Core().FreeCells())
	}
	fmt.Printf("multicast packets: %d, each to %d outputs\n", packets, len(group))
	fmt.Printf("copies delivered: %d, with the unicast cross-traffic\n", copies)
	fmt.Printf("peak buffer addresses: %d of %d\n", peak, model.Cells)
	// Output:
	// multicast packets: 834, each to 7 outputs
	// copies delivered: 6385, with the unicast cross-traffic
	// peak buffer addresses: 1 of 256
}

// ExampleTelegraphosIII_cluster is the §1/§4 motivating scenario: eight
// workstations on one Telegraphos III switch exchange memory-mapped remote
// writes at light load, where every cycle of latency matters. The switch
// cuts a packet through in a fraction of the cell time store-and-forward
// costs. Then the prototype's routing memory translates each write's
// address to its host, and credit flow control keeps any host from being
// overrun.
func ExampleTelegraphosIII_cluster() {
	model := pipemem.TelegraphosIII()
	const load = 0.2
	for _, cutThrough := range []bool{true, false} {
		cfg := model.SwitchConfig()
		cfg.CutThrough = cutThrough
		sw, err := pipemem.New(cfg)
		if err != nil {
			log.Fatal(err)
		}
		cs, err := pipemem.NewCellStream(pipemem.TrafficConfig{
			Kind: pipemem.Bernoulli, N: model.Ports, Load: load, Seed: 11,
		}, model.Stages)
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipemem.RunTraffic(sw, cs, 50_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("cut-through=%-5v mean head latency %5.1f cycles (%4.0f ns), min %d\n",
			cutThrough, res.MeanCutLatency, res.MeanCutLatency*model.ClockNs, res.MinCutLatency)
	}

	// Addresses 0x100·h belong to host h; each host returns a credit as
	// soon as a write reaches it.
	sw, err := pipemem.NewTelegraphos(model, 8)
	if err != nil {
		log.Fatal(err)
	}
	for h := 0; h < model.Ports; h++ {
		if err := sw.SetRoute(uint64(0x100*h), h); err != nil {
			log.Fatal(err)
		}
	}
	rng := rand.New(rand.NewPCG(5, 5))
	var seq uint64
	busy := make([]int, model.Ports)
	delivered, latency := 0, int64(0)
	for cyc := 0; cyc < 20_000; cyc++ {
		pkts := make([]*pipemem.TelegraphosPacket, model.Ports)
		for i := range pkts {
			if busy[i] > 0 {
				busy[i]--
				continue
			}
			if rng.Float64() < load/float64(model.Stages) {
				seq++
				payload := make([]pipemem.Word, model.Stages-1)
				for j := range payload {
					payload[j] = pipemem.Word(rng.Uint64()).Mask(model.WordBits)
				}
				pkts[i] = &pipemem.TelegraphosPacket{Header: uint64(0x100 * rng.IntN(model.Ports)), Payload: payload, Seq: seq}
				busy[i] = model.Stages - 1
			}
		}
		sw.Tick(pkts)
		for _, d := range sw.Drain() {
			delivered++
			latency += d.HeadOut - d.HeadIn
			sw.ReturnCredit(d.Output)
		}
	}
	mean := float64(latency) / float64(delivered)
	fmt.Printf("with credits: %d remote writes, mean head latency %.1f cycles (%.0f ns), %d in flight\n",
		delivered, mean, mean*model.ClockNs, sw.PendingHeaders())
	// Output:
	// cut-through=true  mean head latency   3.8 cycles (  61 ns), min 2
	// cut-through=false mean head latency  19.9 cycles ( 318 ns), min 18
	// with credits: 1667 remote writes, mean head latency 3.3 cycles (54 ns), 2 in flight
}
