package area

import "fmt"

// Block is one named rectangle of a floorplan.
type Block struct {
	Name              string
	WidthMm, HeightMm float64
}

// Mm2 returns the block area.
func (b Block) Mm2() float64 { return b.WidthMm * b.HeightMm }

// Floorplan is a named collection of blocks plus explicit extra area
// (routing channels etc.).
type Floorplan struct {
	Name         string
	Blocks       []Block
	RoutingMm2   float64
	ChipWidthMm  float64
	ChipHeightMm float64
}

// BlocksMm2 sums the block areas.
func (f Floorplan) BlocksMm2() float64 {
	s := 0.0
	for _, b := range f.Blocks {
		s += b.Mm2()
	}
	return s
}

// TotalMm2 is blocks plus routing.
func (f Floorplan) TotalMm2() float64 { return f.BlocksMm2() + f.RoutingMm2 }

// TelegraphosII returns the published §4.2 shared-buffer floorplan of the
// Telegraphos II standard-cell ASIC (fig. 6): eight 256×16 compiled SRAM
// megacells of 1.5×0.9 mm², 15 mm² of standard-cell peripheral circuitry,
// and 5.5 mm² of memory-bus routing — "the total shared buffer area
// amounts to 32 mm²" on an 8.5×8.5 mm die.
func TelegraphosII() Floorplan {
	f := Floorplan{
		Name:         "Telegraphos II shared buffer (0.7um std-cell)",
		ChipWidthMm:  8.5,
		ChipHeightMm: 8.5,
		RoutingMm2:   5.5,
	}
	for i := 0; i < 8; i++ {
		f.Blocks = append(f.Blocks, Block{Name: fmt.Sprintf("SRAM stage DB%d (256×16)", i), WidthMm: 1.5, HeightMm: 0.9})
	}
	f.Blocks = append(f.Blocks, Block{Name: "peripheral std-cells", WidthMm: 5.0, HeightMm: 3.0})
	return f
}

// TelegraphosIII returns the §4.4 full-custom buffer summary (fig. 8):
// 16 pipelined stages, 256 cells of 256 bits (64 Kbit), 8+8 links of
// 16 bits, peripheral datapath ≈ 9 mm², total ≈ 45 mm² including crossbar
// and cut-through, in 1.0 µm CMOS.
func TelegraphosIII() Floorplan {
	// The arrays hold 64 Kbit. Full-custom storage is denser than the
	// compiled megacells of T2 (which would cost 1.35 mm² × (1.0/0.7)² ≈
	// 2.76 mm² per 4-Kbit stage if merely rescaled): the paper's 45 mm²
	// total minus the 9 mm² peripheral datapath leaves 36 mm² for the 16
	// stages, i.e. 2.25 mm² per 256×16 stage (≈ 550 µm²/bit at 1.0 µm,
	// a 1.22× density gain over rescaled compiled SRAM).
	const sramPerStage = 36.0 / 16
	f := Floorplan{
		Name:         "Telegraphos III pipelined buffer (1.0um full-custom)",
		ChipWidthMm:  7.5,
		ChipHeightMm: 6.0,
	}
	for i := 0; i < 16; i++ {
		f.Blocks = append(f.Blocks, Block{Name: fmt.Sprintf("SRAM stage M%d (256×16)", i), WidthMm: sramPerStage / 0.9, HeightMm: 0.9})
	}
	f.Blocks = append(f.Blocks,
		Block{Name: "incoming link datapath", WidthMm: 7.5, HeightMm: 0.6},
		Block{Name: "outgoing link datapath", WidthMm: 7.5, HeightMm: 0.6},
	)
	return f
}

// InputVsShared is the §5.1 (fig. 9) first-order floorplan comparison for
// an n×n switch of link width w. All linear dimensions are in units of
// single-ported bit-cell pitches; areas are in squared bit-cell units.
// Cells here are switch cells of one quantum (2nw bits).
type InputVsShared struct {
	N, W int
	// CellsPerInput and SharedCells are the equal-performance buffer
	// capacities: cells per input buffer, and total cells in the shared
	// buffer (§2.2 / [HlKa88]: 80 per input vs 86 total at 16×16,
	// p = 0.8, loss 10⁻³).
	CellsPerInput, SharedCells int

	// WidthInput and WidthShared are the total memory widths — equal, at
	// 2nw bit-cells (§5.1: "The shared buffer has the same width", since
	// its throughput must equal the aggregate of all the input buffers).
	WidthInput, WidthShared int

	// HInputRows and HSharedRows are the array heights in bit-cell rows
	// (total bits / width): "we can let H_s be (significantly) smaller
	// than H_i".
	HInputRows, HSharedRows int

	// BitsInput and BitsShared are total buffer capacities in bits.
	BitsInput, BitsShared int

	// CrossbarBlocksInput and CrossbarBlocksShared count the ≈2nw×nw
	// wire-dominated blocks: input buffering needs one crossbar (plus a
	// scheduler), shared buffering two (input and output datapaths).
	CrossbarBlocksInput, CrossbarBlocksShared int
	// CrossbarBlockArea is the area of one such block, 2nw wide × nw
	// output wires tall.
	CrossbarBlockArea int
}

// CompareInputVsShared evaluates fig. 9 with the given equal-performance
// buffer capacities (obtain them from the E3 simulation or [HlKa88]:
// cells per input buffer vs total shared cells).
func CompareInputVsShared(n, w, cellsPerInput, sharedCells int) InputVsShared {
	cellBits := 2 * n * w // one quantum
	width := 2 * n * w
	c := InputVsShared{
		N: n, W: w,
		CellsPerInput: cellsPerInput, SharedCells: sharedCells,
		WidthInput:           width,
		WidthShared:          width,
		BitsInput:            n * cellsPerInput * cellBits,
		BitsShared:           sharedCells * cellBits,
		CrossbarBlocksInput:  1,
		CrossbarBlocksShared: 2,
		CrossbarBlockArea:    width * (n * w),
	}
	c.HInputRows = c.BitsInput / width
	c.HSharedRows = c.BitsShared / width
	return c
}

// TotalInput returns memory + crossbar area for input buffering (the
// scheduler is ignored on both sides of the comparison, conservatively
// favouring input buffering — §5.1 argues it roughly offsets the shared
// buffer's second crossbar).
func (c InputVsShared) TotalInput() int {
	return c.BitsInput + c.CrossbarBlocksInput*c.CrossbarBlockArea
}

// TotalShared returns memory + crossbar area for shared buffering.
func (c InputVsShared) TotalShared() int {
	return c.BitsShared + c.CrossbarBlocksShared*c.CrossbarBlockArea
}

// Advantage returns TotalInput/TotalShared (> 1 means shared wins).
func (c InputVsShared) Advantage() float64 {
	return float64(c.TotalInput()) / float64(c.TotalShared())
}

// CapacityBits returns the §4 capacity arithmetic for a K-stage,
// A-address, w-bit pipelined buffer (Telegraphos III: 16×256×16 = 64 Kbit
// = 256 cells × 256 bits).
func CapacityBits(stages, cells, wordBits int) int {
	return stages * cells * wordBits
}

// CellBits returns the cell size in bits (stages × wordBits).
func CellBits(stages, wordBits int) int { return stages * wordBits }
