package area

import (
	"math"
	"strings"
	"testing"

	"pipemem/internal/analytic"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want ≈%v (±%v)", name, got, want, tol)
	}
}

func TestTechScale(t *testing.T) {
	// Shrinking 1.0 µm → 0.7 µm halves the area (0.49×).
	approx(t, "scale 1.0→0.7", ES2u10.Scale(ES2u07), 0.49, 1e-12)
	approx(t, "scale 0.7→1.0", ES2u07.Scale(ES2u10), 1/0.49, 1e-9)
	approx(t, "identity", ES2u10.Scale(ES2u10), 1, 1e-12)
}

// TestPeripheralAreaAnchors reproduces §5.2: at Telegraphos III parameters
// (8 ports, 1.0 µm full custom) the pipelined peripheral area is ≈9 mm²,
// the wide-memory equivalent ≈13 mm², a ≈30% saving.
func TestPeripheralAreaAnchors(t *testing.T) {
	m := DefaultRowModel()
	cmp := m.ComparePeriphery(8, ES2u10)
	approx(t, "pipelined periphery", cmp.PipelinedMm2, 9, 0.01)
	approx(t, "wide periphery", cmp.WideMm2, 13, 0.01)
	if cmp.Saving < 0.28 || cmp.Saving > 0.33 {
		t.Errorf("saving %v, want ≈30%%", cmp.Saving)
	}
}

func TestPeripheryRowCounts(t *testing.T) {
	// fig. 4: n input rows + 1 output row + 1 control row.
	if got := PeripheryRows(Pipelined, 8); got != 10 {
		t.Fatalf("pipelined rows = %d, want 10", got)
	}
	// fig. 3: 2n input (double buffering) + n output + control + CT.
	if got := PeripheryRows(Wide, 8); got != 27 {
		t.Fatalf("wide rows = %d, want 27", got)
	}
	// The structural point: the wide organization needs roughly 3× the
	// register rows, and the gap grows with n.
	for _, n := range []int{2, 4, 8, 16, 32} {
		if PeripheryRows(Wide, n) <= PeripheryRows(Pipelined, n) {
			t.Fatalf("n=%d: wide not larger", n)
		}
	}
}

// TestFullCustomFactor22 reproduces §4.4: ×2 links, ×2.5 clock, ×4.5 area
// → "approximately a factor of 22".
func TestFullCustomFactor22(t *testing.T) {
	g := TelegraphosGain()
	approx(t, "link factor", g.LinkFactor, 2, 0)
	approx(t, "clock factor", g.ClockFactor, 2.5, 0)
	approx(t, "area factor", g.AreaFactor, 4.5, 0.06) // 41/9 = 4.56
	if total := g.Total(); total < 21 || total > 24 {
		t.Errorf("total gain %v, want ≈22", total)
	}
}

// TestStdCell18x reproduces §4.4's last claim: "an 8×8 standard-cell
// design would be about 18 times larger" (periphery ∝ n², ×4.5 per
// technology style).
func TestStdCell18x(t *testing.T) {
	got := StdCellBlowup(8, 4, TelegraphosGain().AreaFactor)
	if got < 17 || got > 19 {
		t.Errorf("8×8 std-cell blowup %v, want ≈18", got)
	}
}

// TestPrizma16x reproduces §5.3: "in Telegraphos III, 2n = 16, while
// M = 256; thus, the shared-buffer crossbars would cost 16 times more in
// the PRIZMA architecture".
func TestPrizma16x(t *testing.T) {
	approx(t, "PRIZMA ratio", PrizmaCrossbarRatio(8, 256), 16, 0)
	// Sanity on the trend: more banks cost proportionally more.
	if PrizmaCrossbarRatio(8, 512) != 32 {
		t.Error("ratio must scale linearly in M")
	}
	if ShiftRegisterPenalty != 4.0 {
		t.Error("§5.3 shift-register penalty is 4×")
	}
	if DecoderVsPipelineReg != 2.3 {
		t.Error("§4.4 decoder/pipeline-register ratio is 2.3×")
	}
}

// TestTelegraphosIIBreakdown reproduces the §4.2 numbers: 8 SRAMs of
// 1.5×0.9 mm² = 10.8 mm², 15 mm² peripheral standard cells, 5.5 mm²
// routing, ≈32 mm² total, on an 8.5×8.5 mm die.
func TestTelegraphosIIBreakdown(t *testing.T) {
	f := TelegraphosII()
	var sram float64
	for _, b := range f.Blocks {
		if strings.HasPrefix(b.Name, "SRAM") {
			sram += b.Mm2()
		}
	}
	approx(t, "SRAM megacells", sram, 10.8, 0.01) // "occupy 11 mm²"
	approx(t, "routing", f.RoutingMm2, 5.5, 0)
	approx(t, "total buffer", f.TotalMm2(), 31.3, 0.5) // "amounts to 32 mm²"
	approx(t, "die", f.ChipWidthMm*f.ChipHeightMm, 72.25, 0)
}

// TestTelegraphosIIICapacity reproduces §4.4: "storage for up to 256
// packets of 256 bits each" = 64 Kbit, and the whole buffer fits in
// ≈45 mm² including crossbar and cut-through.
func TestTelegraphosIIICapacity(t *testing.T) {
	if got := CapacityBits(16, 256, 16); got != 65536 {
		t.Fatalf("capacity = %d bits, want 64 Kbit", got)
	}
	if got := CellBits(16, 16); got != 256 {
		t.Fatalf("cell = %d bits, want 256", got)
	}
	f := TelegraphosIII()
	total := f.TotalMm2()
	if total < 35 || total > 50 {
		t.Errorf("T3 buffer total %v mm², paper says ≈45 mm²", total)
	}
	// Peripheral datapath blocks ≈ 9 mm².
	var periph float64
	for _, b := range f.Blocks {
		if strings.Contains(b.Name, "link datapath") {
			periph += b.Mm2()
		}
	}
	approx(t, "T3 periphery", periph, 9, 0.5)
}

// TestInputVsSharedFloorplan reproduces fig. 9/§5.1: equal widths, two
// crossbar blocks vs one, and the shared buffer's height advantage
// translating into net area advantage at the [HlKa88] operating point
// (80 cells/input vs ≈6 cells/output for equal loss).
func TestInputVsSharedFloorplan(t *testing.T) {
	const n, w = 16, 16
	// [HlKa88] operating point: 80 cells per input buffer vs 86 cells
	// total in the shared buffer.
	c := CompareInputVsShared(n, w, 80, 86)
	if c.WidthInput != c.WidthShared {
		t.Fatal("§5.1: the two organizations have the same total width")
	}
	if c.WidthShared != 2*n*w {
		t.Fatalf("width = %d, want 2nw = %d", c.WidthShared, 2*n*w)
	}
	if c.CrossbarBlocksShared != 2 || c.CrossbarBlocksInput != 1 {
		t.Fatal("crossbar block counts wrong")
	}
	if c.BitsShared >= c.BitsInput {
		t.Fatal("shared buffering must need fewer total bits")
	}
	if c.HSharedRows >= c.HInputRows {
		t.Fatal("§5.1: H_s must be (significantly) smaller than H_i")
	}
	if adv := c.Advantage(); adv <= 1.5 {
		t.Errorf("advantage %v: shared buffering should win clearly", adv)
	}
	// And with equal total capacity, input buffering would win (one
	// crossbar fewer) — the advantage really comes from H_s < H_i.
	eq := CompareInputVsShared(n, w, 80, 80*n)
	if eq.Advantage() >= 1 {
		t.Error("with equal capacity the second crossbar must cost shared buffering the lead")
	}
}

// TestQuantumConsistency ties the area model to the analytic quantum: the
// §3.5 example of 16 links near a GByte/s each.
func TestQuantumConsistency(t *testing.T) {
	q := analytic.Quantum{Links: 16, WordBits: 32}
	// width 1024 bits at 5 ns: 204.8 Gb/s aggregate = 12.8 Gb/s per
	// link-pair… per §3.5: "enough for 16 incoming and 16 outgoing links
	// near the Giga-Byte per second range".
	agg := analytic.AggregateGbps(q.Bits(), 5)
	perLinkGBps := agg / 8 / float64(2*q.Links)
	if perLinkGBps < 0.5 || perLinkGBps > 1.0 {
		t.Errorf("per-link %v GB/s, want near the GByte/s range", perLinkGBps)
	}
}

// TestTelegraphosIPartition reproduces the §4.1 implementation breakdown:
// 8 SRAM stage chips, ≈500 gates of arbitration/stage-0 control in one
// FPGA, and an 8-bit peripheral datapath sliced 4 × 2 bits at ≈1500
// gates per slice.
func TestTelegraphosIPartition(t *testing.T) {
	p := TelegraphosIPartition()
	if p.SRAMChips != 8 {
		t.Errorf("SRAM chips = %d, want one per stage (8)", p.SRAMChips)
	}
	if p.DatapathBits() != 8 {
		t.Errorf("datapath = %d bits, want the 8-bit link width", p.DatapathBits())
	}
	if p.TotalGates() != 500+4*1500 {
		t.Errorf("total gates = %d, want 6500", p.TotalGates())
	}
	if g := p.GatesPerLinkBit(); g != 750 {
		t.Errorf("gates per link bit = %v, want 750", g)
	}
	if p.PCBSignalLayers != 4 || p.TraceWidthMm != 0.2 {
		t.Error("PCB wiring facts wrong")
	}
	if p.String() == "" {
		t.Error("empty rendering")
	}
}
