// Command pmarea evaluates the §4/§5 VLSI area models: the Telegraphos
// II/III floorplans, the pipelined-vs-wide peripheral comparison, the
// fig. 9 shared-vs-input comparison, and the PRIZMA crossbar cost.
//
// Usage:
//
//	pmarea                      # everything at the paper's parameters
//	pmarea -n 16 -w 32          # rescale the comparisons
package main

import (
	"flag"
	"fmt"
	"os"

	"pipemem/internal/area"
)

func main() {
	var (
		n      = flag.Int("n", 8, "ports for the periphery/PRIZMA comparisons")
		w      = flag.Int("w", 16, "link width (bits) for the fig. 9 comparison")
		banks  = flag.Int("banks", 256, "PRIZMA bank count M")
		hIn    = flag.Int("hin", 80, "fig. 9: cells per input buffer")
		hShare = flag.Int("hshared", 86, "fig. 9: total shared-buffer cells")
	)
	flag.Parse()

	if *n <= 0 || *w <= 0 || *banks <= 0 || *hIn <= 0 || *hShare <= 0 {
		fmt.Fprintln(os.Stderr, "pmarea: -n, -w, -banks, -hin and -hshared must all be positive")
		os.Exit(2)
	}

	fmt.Println("== Telegraphos II floorplan (§4.2, fig. 6) ==")
	fmt.Print(area.TelegraphosII())
	fmt.Println()

	fmt.Println("== Telegraphos III floorplan (§4.4, fig. 8) ==")
	fmt.Print(area.TelegraphosIII())
	fmt.Println()

	fmt.Println("== Peripheral circuitry: pipelined vs wide (§5.2) ==")
	m := area.DefaultRowModel()
	cmp := m.ComparePeriphery(*n, area.ES2u10)
	fmt.Printf("  register rows:  pipelined %d, wide %d (n=%d)\n",
		area.PeripheryRows(area.Pipelined, *n), area.PeripheryRows(area.Wide, *n), *n)
	fmt.Printf("  pipelined: %5.2f mm²   wide: %5.2f mm²   saving: %.0f%%\n\n",
		cmp.PipelinedMm2, cmp.WideMm2, cmp.Saving*100)

	fmt.Println("== Shared vs input buffering (§5.1, fig. 9) ==")
	c := area.CompareInputVsShared(16, *w, *hIn, *hShare)
	fmt.Printf("  width (both):       %d bit-cells (2nw)\n", c.WidthShared)
	fmt.Printf("  array height:       input %d rows, shared %d rows\n", c.HInputRows, c.HSharedRows)
	fmt.Printf("  crossbar blocks:    input %d, shared %d (each %d units)\n",
		c.CrossbarBlocksInput, c.CrossbarBlocksShared, c.CrossbarBlockArea)
	fmt.Printf("  total area:         input %d, shared %d → shared wins %.2f×\n\n",
		c.TotalInput(), c.TotalShared(), c.Advantage())

	fmt.Println("== PRIZMA interleaved comparison (§5.3) ==")
	fmt.Printf("  crossbar cost ratio n×M / n×2n = %.0f×  (M=%d, 2n=%d)\n",
		area.PrizmaCrossbarRatio(*n, *banks), *banks, 2**n)
	fmt.Printf("  shift-register bank penalty: %.0f× a 3T DRAM bit\n", area.ShiftRegisterPenalty)
	fmt.Printf("  decoder vs decoded-address pipeline register: %.1f× (fig. 7b)\n\n", area.DecoderVsPipelineReg)

	fmt.Println("== Technology scaling (§4.4) ==")
	g := area.TelegraphosGain()
	fmt.Printf("  full custom vs standard cell: ×%.0f links, ×%.1f clock, ×%.1f area → %.1f overall\n",
		g.LinkFactor, g.ClockFactor, g.AreaFactor, g.Total())
	fmt.Printf("  8×8 standard-cell periphery: %.1f× the full-custom area (∝ n²)\n",
		area.StdCellBlowup(8, 4, g.AreaFactor))
}
