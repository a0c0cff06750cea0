// Multistage fabric: the §1/§2 claim that the pipelined-memory switch is
// a "building block for larger, multi-stage switches and networks",
// demonstrated end to end.
//
// A 64-terminal butterfly is built twice from the same topology:
//
//   - with input-FIFO wormhole nodes (the [Dally90] regime of §2.1), and
//   - with pipelined-memory shared-buffer nodes, credit flow control on
//     every inter-stage link, and cut-through chained across hops.
//
// The program prints both fabrics' saturation throughput and the
// shared-buffer fabric's light-load latency (≈3 cycles per hop: heads
// race ahead of their tails across the whole network).
package main

import (
	"fmt"
	"log"

	"pipemem"
)

func main() {
	const terminals = 64

	// Input-FIFO wormhole fabric at saturation (20-flit messages,
	// 16-flit buffers — the quoted early-collapse configuration).
	w, err := pipemem.NewWormhole(pipemem.WormholeConfig{
		Terminals: terminals, BufferFlits: 16, MsgFlits: 20, Saturate: true, Seed: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	wres, err := pipemem.RunWormhole(w, 10_000, 50_000)
	if err != nil {
		log.Fatal(err)
	}

	// Shared-buffer fabric on the same butterfly.
	build := func(credits int) pipemem.FabricResult {
		f, err := pipemem.NewFabric(pipemem.FabricConfig{
			Terminals: terminals, Radix: 2, WordBits: 16,
			SwitchCells: 32, Credits: credits, CutThrough: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		res, err := pipemem.RunFabric(f, pipemem.TrafficConfig{Kind: pipemem.Saturation, Seed: 1}, 10_000, 50_000)
		if err != nil {
			log.Fatal(err)
		}
		return res
	}

	fmt.Printf("64-terminal butterfly, saturation throughput (fraction of link capacity):\n\n")
	fmt.Printf("  input-FIFO wormhole nodes:            %.3f\n", wres.Throughput)
	for _, credits := range []int{1, 2, 4} {
		res := build(credits)
		fmt.Printf("  pipelined-memory nodes, %d credit(s):  %.3f   (interior drops: %d)\n",
			credits, res.Throughput, res.InteriorDrops)
	}

	// Light-load latency: chained cut-through.
	f, err := pipemem.NewFabric(pipemem.FabricConfig{
		Terminals: terminals, Radix: 2, WordBits: 16,
		SwitchCells: 32, Credits: 4, CutThrough: true,
	})
	if err != nil {
		log.Fatal(err)
	}
	lres, err := pipemem.RunFabric(f, pipemem.TrafficConfig{Kind: pipemem.Bernoulli, Load: 0.05, Seed: 2}, 5_000, 50_000)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nlight-load head latency across 6 hops: min %d cycles, mean %.1f\n",
		lres.MinLatency, lres.MeanLatency)
	fmt.Printf("(≈3 cycles per hop — each head leaves a switch while its own tail is\n")
	fmt.Printf(" still arriving there: §3.3's automatic cut-through, chained by the\n")
	fmt.Printf(" fabric across stages; a store-and-forward fabric would need ≥ %d.)\n",
		6*(f.CellWords()+2))

	// The other classic composition: a three-stage Clos, with the
	// middle-stage count as the knob.
	fmt.Printf("\n16-terminal Clos C(4,4,4), saturation vs populated middles:\n")
	for _, m := range []int{1, 2, 4} {
		cn, err := pipemem.NewClos(pipemem.ClosConfig{
			Radix: 4, Middles: m, WordBits: 16,
			SwitchCells: 32, Credits: 4, CutThrough: true,
		})
		if err != nil {
			log.Fatal(err)
		}
		cres, err := pipemem.RunFabric(cn, pipemem.TrafficConfig{Kind: pipemem.Saturation, Seed: 3}, 5_000, 30_000)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %d middle switch(es): %.3f\n", m, cres.Throughput)
	}
}
