package trace

import (
	"strings"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// newSwitch builds a switch for the VCD tests, failing the test on a bad
// configuration.
func newSwitch(t *testing.T, cfg core.Config) *core.Switch {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestVCDExport renders the fig. 5 golden scenario as a VCD stream and
// checks structure and key value changes.
func TestVCDExport(t *testing.T) {
	s := newSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	var buf strings.Builder
	vw := NewVCDWriter(&buf, s, 16) // Telegraphos III clock
	s.SetTracer(vw.Trace)
	for c := int64(0); c < 16; c++ {
		var heads []*cell.Cell
		if c == 0 {
			heads = []*cell.Cell{cell.New(1, 0, 1, k, 16), nil}
		}
		s.Tick(heads)
	}
	if err := vw.Err(); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	// Structure.
	for _, want := range []string{
		"$timescale 1ns $end",
		"$scope module pipemem $end",
		"$var wire 2 o0 M0_op [1:0] $end",
		"$var wire 16 a3 M3_addr [15:0] $end",
		"$var wire 8 l1 in1_latch [7:0] $end",
		"$enddefinitions $end",
	} {
		if !strings.Contains(got, want) {
			t.Fatalf("VCD missing %q:\n%s", want, got[:min(len(got), 600)])
		}
	}
	// Timestamps scale by the 16 ns clock.
	for _, want := range []string{"#0\n", "#16\n", "#32\n"} {
		if !strings.Contains(got, want) {
			t.Fatalf("VCD missing timestamp %q", want)
		}
	}
	// The write-through wave at cycle 1 (time 16): op code b11 on M0.
	idx16 := strings.Index(got, "#16\n")
	idx32 := strings.Index(got, "#32\n")
	if idx16 < 0 || idx32 < 0 || !strings.Contains(got[idx16:idx32], "b11 o0") {
		t.Fatal("write-through not visible at time 16 on M0_op")
	}
	// Its delayed copy on M1 at time 32.
	idx48 := strings.Index(got, "#48\n")
	if idx48 < 0 || !strings.Contains(got[idx32:idx48], "b11 o1") {
		t.Fatal("delayed copy not visible at time 32 on M1_op")
	}
	// Idle stages read x addresses at time 0.
	if !strings.Contains(got[:idx16], "bx a0") {
		t.Fatal("idle address not x at time 0")
	}
}

// TestVCDChangeOnly: repeated idle cycles add timestamps but no repeated
// value lines (VCD is change-based).
func TestVCDChangeOnly(t *testing.T) {
	s := newSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	var buf strings.Builder
	vw := NewVCDWriter(&buf, s, 1)
	s.SetTracer(vw.Trace)
	for c := 0; c < 50; c++ {
		s.Tick(nil)
	}
	got := buf.String()
	// After the initial dump at #0, idle cycles contribute only "#t" lines.
	idx1 := strings.Index(got, "#1\n")
	if idx1 < 0 {
		t.Fatal("missing #1")
	}
	tail := got[idx1:]
	if strings.Contains(tail, " o0") || strings.Contains(tail, " a0") {
		t.Fatalf("idle cycles re-emitted unchanged values:\n%s", tail[:min(len(tail), 300)])
	}
}

func TestVCDBitsHelper(t *testing.T) {
	for _, tc := range []struct {
		v, w int
		want string
	}{
		{-1, 8, "bx"},
		{0, 8, "b0"},
		{1, 8, "b1"},
		{5, 8, "b101"},
		{255, 8, "b11111111"},
	} {
		if got := bitVec(tc.v, tc.w); got != tc.want {
			t.Errorf("bitVec(%d,%d) = %q, want %q", tc.v, tc.w, got, tc.want)
		}
	}
	if opBits(core.OpRead) != "b10" || opBits(core.OpNone) != "b00" {
		t.Error("opBits wrong")
	}
}
