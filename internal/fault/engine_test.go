package fault

import (
	"reflect"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// TestEngineSkipsEventsThatChangeNothing: an event naming a stage, address
// or input the switch lacks, whose mask the word width cuts to zero, or that
// sets a bank to the stuck level it already has, hits nothing — the engine
// counts it skipped and the switch is left as it was.
func TestEngineSkipsEventsThatChangeNothing(t *testing.T) {
	for _, r := range []struct {
		line    string
		applied bool
		// setup, when set, is a plan line applied to the switch first.
		setup string
	}{
		{"@0 mem stage=1 addr=1 bits=0x10", true, ""},
		{"@0 mem stage=9 addr=1", false, ""},
		{"@0 mem stage=1 addr=99", false, ""},
		{"@0 mem stage=1 addr=1 bits=0x10000", false, ""},
		{"@0 stuck stage=1", true, ""},
		{"@0 stuck stage=9", false, ""},
		{"@0 stuck stage=1", false, "@0 stuck stage=1"},
		{"@0 stuck stage=1 off", false, ""},
		{"@0 stuck stage=1 off", true, "@0 stuck stage=1"},
		{"@0 inreg in=0 word=0 bits=0x4", true, ""},
		{"@0 inreg in=5 word=0", false, ""},
		{"@0 inreg in=0 word=0 bits=0x10000", false, ""},
		{"@0 linkcorrupt in=0 word=any bits=0x10", true, ""},
		{"@0 linkcorrupt in=0 word=any bits=0x10000", false, ""},
	} {
		name := r.line
		if r.setup != "" {
			name = r.setup + " then " + r.line
		}
		t.Run(name, func(t *testing.T) {
			s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, ECC: true})
			k := s.Config().Stages
			links := []*Link{NewLink(k, 16, -1), NewLink(k, 16, -1)}
			for i, l := range links {
				l.Offer(cell.New(uint64(i+1), i, 1-i, k, 16), 0)
				l.Tick(0, pool) // word 0 on the wire
			}
			if r.setup != "" {
				NewEngine(mustPlan(t, r.setup), 1).Step(Target{Switch: s, Links: links}, 0)
			}
			before, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			plan := mustPlan(t, r.line)
			e := NewEngine(plan, 1)
			e.Step(Target{Switch: s, Links: links}, 0)
			kind := plan.Events[0].Kind
			applied, skipped := e.Tallies()
			if applied[kind]+skipped[kind] != 1 || (applied[kind] == 1) != r.applied {
				t.Fatalf("applied=%d skipped=%d, want applied=%v", applied[kind], skipped[kind], r.applied)
			}
			after, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if !r.applied && !reflect.DeepEqual(before, after) {
				t.Fatal("a skipped event changed the switch")
			}
		})
	}

	// The link on its own: a mask the word width cuts to zero hits nothing.
	l := NewLink(4, 16, -1)
	l.Offer(cell.New(1, 0, 1, 4, 16), 0)
	l.Tick(0, pool)
	if l.CorruptWord(Any, 0x10000) {
		t.Fatal("CorruptWord reported a hit for a mask wider than the word")
	}
}
