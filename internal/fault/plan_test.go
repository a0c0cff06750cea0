package fault

import (
	"errors"
	"strings"
	"testing"

	"pipemem/internal/core"
)

// TestPlanParse pins the text format: every documented kind parses into
// the expected event.
func TestPlanParse(t *testing.T) {
	text := `
# a comment
@120 mem stage=3 addr=any bits=0x10
@200 stuck stage=2
@400 stuck stage=2 off
@50 ctrl stage=1 op=R out=0 addr=3
@55 ctrl stage=1 op=-
@70 inreg in=0 word=2 bits=4
@80 linkdrop in=1 word=any
@90 linkcorrupt in=1 word=3 bits=0x1
`
	p, err := Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Cycle: 50, Kind: Ctrl, Stage: 1, Addr: Any, In: Any, Word: Any, Op: core.Op{Kind: core.OpRead, Out: 0, Addr: 3}},
		{Cycle: 55, Kind: Ctrl, Stage: 1, Addr: Any, In: Any, Word: Any},
		{Cycle: 70, Kind: InReg, Stage: Any, Addr: Any, In: 0, Word: 2, Bits: 4},
		{Cycle: 80, Kind: LinkDrop, Stage: Any, Addr: Any, In: 1, Word: Any},
		{Cycle: 90, Kind: LinkCorrupt, Stage: Any, Addr: Any, In: 1, Word: 3, Bits: 1},
		{Cycle: 120, Kind: Mem, Stage: 3, Addr: Any, In: Any, Word: Any, Bits: 0x10},
		{Cycle: 200, Kind: Stuck, Stage: 2, Addr: Any, In: Any, Word: Any},
		{Cycle: 400, Kind: Stuck, Stage: 2, Addr: Any, In: Any, Word: Any, Off: true},
	}
	if len(p.Events) != len(want) {
		t.Fatalf("parsed %d events, want %d", len(p.Events), len(want))
	}
	for i, e := range p.Events {
		if e != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, e, want[i])
		}
	}
}

// TestPlanRoundTrip: String() re-parses to an identical plan.
func TestPlanRoundTrip(t *testing.T) {
	p := Random(7, RandomOptions{
		Cycles: 1000, Events: 50, Stages: 8, WordBits: 16, Inputs: 4,
		Kinds: []Kind{Mem, Stuck, Ctrl, InReg, LinkDrop, LinkCorrupt},
	})
	text := p.String()
	q, err := Parse(text)
	if err != nil {
		t.Fatalf("re-parse: %v\n%s", err, text)
	}
	if len(q.Events) != len(p.Events) {
		t.Fatalf("round trip lost events: %d → %d", len(p.Events), len(q.Events))
	}
	for i := range p.Events {
		if p.Events[i] != q.Events[i] {
			t.Errorf("event %d changed: %+v → %+v", i, p.Events[i], q.Events[i])
		}
	}
}

// TestPlanParseErrors: malformed plans are rejected with ErrBadPlan.
func TestPlanParseErrors(t *testing.T) {
	for _, bad := range []string{
		"mem stage=1",                // missing @cycle
		"@x mem stage=1",             // bad cycle
		"@-3 mem stage=1",            // negative cycle
		"@5 quake stage=1",           // unknown kind
		"@5 mem stage=1 volts=3",     // unknown key
		"@5 mem bits=zz",             // bad mask
		"@5 stuck",                   // stuck needs stage
		"@5 stuck stage=any",         // stuck stage can't be any
		"@5 ctrl stage=1",            // ctrl needs op
		"@5 ctrl stage=1 op=Q",       // bad op
		"@5 inreg in=0",              // inreg needs word
		"@5 linkdrop word=2",         // link needs in
		"@5 mem stage=1 addr",        // not key=value
		"@5 inreg in=0 word=any",     // word=any invalid for inreg
		"@5 linkdrop in=0 bits=1",    // a key the kind does not take
		"@5 stuck stage=1 addr=3",    // likewise
		"@5 ctrl stage=1 op=- out=2", // operands on a squash
	} {
		if _, err := Parse(bad); !errors.Is(err, ErrBadPlan) {
			t.Errorf("Parse(%q) err = %v, want ErrBadPlan", bad, err)
		}
	}
}

// TestPlanRandomDeterministic: same seed, same plan.
func TestPlanRandomDeterministic(t *testing.T) {
	o := RandomOptions{Cycles: 5000, Events: 100, Stages: 8, WordBits: 16, Inputs: 4}
	a, b := Random(42, o), Random(42, o)
	if a.String() != b.String() {
		t.Fatal("Random is not deterministic for a fixed seed")
	}
	if c := Random(43, o); c.String() == a.String() {
		t.Fatal("different seeds produced identical plans")
	}
	if !strings.Contains(a.String(), "mem") {
		t.Fatal("default mix should contain mem events")
	}
}
