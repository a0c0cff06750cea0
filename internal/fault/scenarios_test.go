package fault

import (
	"fmt"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// These are the ad-hoc white-box fault scenarios that used to live in
// internal/core/faultinject_test.go, migrated onto the fault-plan API so
// the injection logic exists in exactly one place. They validate the
// verification machinery itself: with no defense layers armed (no ECC),
// would the integrity checks notice a misbehaving buffer, control
// pipeline, or input register? The checks must trip.

func mustSwitch(t *testing.T, cfg core.Config) *core.Switch {
	t.Helper()
	s, err := core.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustPlan(t *testing.T, text string) *Plan {
	t.Helper()
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// runOne drives a single cell 0→1 through the switch while the plan
// unfolds, and returns the departures.
func runOne(t *testing.T, s *core.Switch, plan *Plan) []core.Departure {
	t.Helper()
	eng := NewEngine(plan, 1)
	k := s.Config().Stages
	for c := int64(0); c < int64(6*k); c++ {
		eng.Step(Target{Switch: s}, c)
		var heads []*cell.Cell
		if c == 0 {
			heads = []*cell.Cell{cell.New(1, 0, 1, k, s.Config().WordBits), nil}
		}
		s.Tick(heads)
	}
	if !eng.Done() {
		t.Fatal("plan not fully fired within the run window")
	}
	return s.Drain()
}

// TestFaultMemoryBitFlip: flipping one stored bit in an unprotected bank
// must surface as exactly one checksum mismatch — no silent delivery.
// (Migrated: the flip now comes from a "mem" plan event; addr=any makes
// the engine find the single stored cell.)
func TestFaultMemoryBitFlip(t *testing.T) {
	s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: false})
	k := s.Config().Stages
	// The write wave starts at cycle 1 and finishes at cycle k; the word
	// is stable (and still queued, store-and-forward) at cycle k+1.
	plan := mustPlan(t, fmt.Sprintf("@%d mem stage=2 addr=any bits=0x4", k+1))
	deps := runOne(t, s, plan)
	if len(deps) != 1 {
		t.Fatalf("%d departures, want 1", len(deps))
	}
	if deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatal("bit flip not detected by the integrity check")
	}
	if got := s.Counters().Get("corrupt"); got != 1 {
		t.Fatalf("corrupt counter = %d, want 1", got)
	}
	if deps[0].Cell.Words[2] == deps[0].Expected.Words[2] {
		t.Fatal("the corrupted word should be word 2")
	}
}

// TestFaultMemoryBitFlipECC is the same scenario with the first defense
// layer armed: SEC-DED absorbs the flip, the delivery is clean, and the
// correction is counted.
func TestFaultMemoryBitFlipECC(t *testing.T) {
	s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: false, ECC: true})
	k := s.Config().Stages
	plan := mustPlan(t, fmt.Sprintf("@%d mem stage=2 addr=any bits=0x4", k+1))
	deps := runOne(t, s, plan)
	if len(deps) != 1 {
		t.Fatalf("%d departures, want 1", len(deps))
	}
	if !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatal("ECC failed to correct a single-bit upset")
	}
	if got := s.Counters().Get("ecc-corrected"); got != 1 {
		t.Fatalf("ecc-corrected = %d, want 1", got)
	}
	if got := s.Counters().Get("corrupt"); got != 0 {
		t.Fatalf("corrupt = %d, want 0", got)
	}
}

// TestFaultControlPipelineStall: glitching a latched control word (a
// stuck-at fault on the fig. 5 shift path) must be caught by the
// delayed-copy invariant over the trace. (Migrated: the glitch is a
// "ctrl" plan event.)
func TestFaultControlPipelineStall(t *testing.T) {
	s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	var events []core.TraceEvent
	s.SetTracer(func(e core.TraceEvent) { events = append(events, e) })
	plan := mustPlan(t, "@2 ctrl stage=2 op=W in=1 addr=7")
	eng := NewEngine(plan, 1)
	for c := int64(0); c < 4; c++ {
		eng.Step(Target{Switch: s}, c)
		var heads []*cell.Cell
		if c == 0 {
			heads = []*cell.Cell{cell.New(1, 0, 1, k, 16), nil}
		}
		s.Tick(heads)
	}
	violated := false
	for i := 1; i < len(events); i++ {
		for st := 1; st < k; st++ {
			if events[i].Ctrl[st] != events[i-1].Ctrl[st-1] {
				violated = true
			}
		}
	}
	if !violated {
		t.Fatal("control-pipeline checker failed to notice the glitched stage")
	}
}

// TestFaultInputRegisterCorruption: corrupting an input register between
// the arrival wave and the write wave is detected downstream. (Migrated:
// an "inreg" plan event firing the cycle after the head latched.)
func TestFaultInputRegisterCorruption(t *testing.T) {
	s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	plan := mustPlan(t, "@1 inreg in=0 word=0 bits=0x8000")
	deps := runOne(t, s, plan)
	if len(deps) != 1 || deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatal("input-register corruption not detected")
	}
}
