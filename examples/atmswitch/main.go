// ATM switch buffer sizing: the workload behind §2.2's motivation for
// shared buffering. A 16×16 ATM-style cell switch carries Bernoulli
// traffic at 80% load; we measure, for each buffering architecture, the
// cell-loss probability as the buffer budget grows, reproducing the
// [HlKa88] comparison the paper quotes: a shared buffer reaches 10⁻³ loss
// with ~86 cells where output queueing needs ~178 and input smoothing
// ~1300.
package main

import (
	"fmt"
	"log"

	"pipemem"
)

const (
	n     = 16
	load  = 0.8
	slots = 400_000
)

func measure(build func(budget int) pipemem.Arch, budget int) float64 {
	g, err := pipemem.NewCellStream(pipemem.TrafficConfig{
		Kind: pipemem.Bernoulli, N: n, Load: load, Seed: 7,
	}, 1)
	if err != nil {
		log.Fatal(err)
	}
	return pipemem.RunArch(build(budget), g, slots/10, slots).LossProb
}

func main() {
	fmt.Printf("16×16 cell switch, load %.1f, %d slots per point (loss floor ≈ %.0e)\n\n",
		load, slots, 1.0/float64(slots*n))

	archs := []struct {
		name  string
		build func(total int) pipemem.Arch
	}{
		{"shared buffer", func(total int) pipemem.Arch {
			return pipemem.NewSharedBufferArch(n, total)
		}},
		{"output queueing", func(total int) pipemem.Arch {
			return pipemem.NewOutputQueue(n, total/n)
		}},
		{"input smoothing", func(total int) pipemem.Arch {
			return pipemem.NewInputSmoothing(n, total/n)
		}},
	}

	budgets := []int{32, 64, 96, 128, 192, 256, 512, 1024, 1536, 2048}
	fmt.Printf("%-18s", "total cells")
	for _, b := range budgets {
		fmt.Printf("%9d", b)
	}
	fmt.Println()
	for _, a := range archs {
		fmt.Printf("%-18s", a.name)
		for _, b := range budgets {
			loss := measure(a.build, b)
			if loss == 0 {
				fmt.Printf("%9s", "<floor")
			} else {
				fmt.Printf("%9.1e", loss)
			}
		}
		fmt.Println()
	}

	fmt.Println("\npaper ([HlKa88], quoted in §2.2): loss 1e-3 needs 86 shared / 178 output / 1300 smoothing")
	fmt.Println("reading: the shared column crosses 1e-3 first — the architecture the")
	fmt.Println("pipelined memory makes cheap to build is also the one that needs the")
	fmt.Println("least silicon for a given loss target.")
}
