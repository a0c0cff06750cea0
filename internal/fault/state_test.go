package fault

import (
	"testing"

	"pipemem/internal/core"
)

// An engine restored from State must resolve the remaining "any" targets
// with the same RNG draws as the original — fault placement is part of
// replay equivalence.
func TestEngineStateResume(t *testing.T) {
	plan, err := Parse("@5 mem stage=any addr=any\n@10 mem stage=any addr=any\n@15 inreg in=0 word=1\n@20 mem stage=any addr=any\n")
	if err != nil {
		t.Fatal(err)
	}
	mkSwitch := func() *core.Switch {
		s, err := core.New(core.Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// Drive the reference engine past the first event, snapshot, then let
	// both finish against identical fresh switches and compare tallies.
	ref := NewEngine(plan, 99)
	sw := mkSwitch()
	for c := int64(0); c <= 7; c++ {
		ref.Step(Target{Switch: sw}, c)
	}
	st, err := ref.State()
	if err != nil {
		t.Fatal(err)
	}
	res, err := RestoreEngine(plan, st)
	if err != nil {
		t.Fatal(err)
	}
	if res.Done() != ref.Done() {
		t.Fatal("Done mismatch after restore")
	}
	sw2 := mkSwitch()
	for c := int64(8); c <= 25; c++ {
		ref.Step(Target{Switch: sw}, c)
		res.Step(Target{Switch: sw2}, c)
	}
	ra, rs := ref.Tallies()
	ga, gs := res.Tallies()
	if ra != ga || rs != gs {
		t.Fatalf("tallies diverged: applied %v/%v skipped %v/%v", ra, ga, rs, gs)
	}
}

func TestRestoreEngineRejectsBadIndex(t *testing.T) {
	plan, _ := Parse("@5 mem stage=0 addr=0\n")
	if _, err := RestoreEngine(plan, &EngineState{Idx: 7}); err == nil {
		t.Fatal("out-of-range index must be rejected")
	}
}
