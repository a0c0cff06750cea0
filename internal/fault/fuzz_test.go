package fault

import (
	"errors"
	"testing"
)

// FuzzFaultPlanParse throws arbitrary text at the plan parser. The parser
// must never panic; it either rejects the input with ErrBadPlan or accepts
// it, and every accepted plan must survive a String → Parse round trip
// unchanged (the two representations agree on the grammar).
func FuzzFaultPlanParse(f *testing.F) {
	f.Add("@120 mem stage=3 addr=any bits=0x10")
	f.Add("@200 stuck stage=2\n@400 stuck stage=2 off")
	f.Add("@50 ctrl stage=1 op=R out=0 addr=3\n@55 ctrl stage=1 op=-")
	f.Add("@70 inreg in=0 word=2 bits=4")
	f.Add("@80 linkdrop in=1 word=any\n@90 linkcorrupt in=1 word=3 bits=0x1")
	f.Add("# comment only\n\n")
	f.Add("@5 mem stage=1 volts=3")
	f.Add("@0 linkdrop in=0 bits=1")    // a key the kind would drop: refused, or String loses it
	f.Add("@55 ctrl stage=1 op=- in=3") // operands on a squash, likewise
	f.Add(Random(11, RandomOptions{
		Cycles: 500, Events: 20, Stages: 8, WordBits: 16, Inputs: 4,
		Kinds: []Kind{Mem, Stuck, Ctrl, InReg, LinkDrop, LinkCorrupt},
	}).String())
	f.Fuzz(func(t *testing.T, text string) {
		p, err := Parse(text)
		if err != nil {
			if !errors.Is(err, ErrBadPlan) {
				t.Fatalf("Parse error %v does not wrap ErrBadPlan", err)
			}
			return
		}
		q, err := Parse(p.String())
		if err != nil {
			t.Fatalf("round trip rejected: %v\nplan:\n%s", err, p.String())
		}
		if len(q.Events) != len(p.Events) {
			t.Fatalf("round trip changed event count: %d → %d", len(p.Events), len(q.Events))
		}
		for i := range p.Events {
			if p.Events[i] != q.Events[i] {
				t.Fatalf("round trip changed event %d: %+v → %+v", i, p.Events[i], q.Events[i])
			}
		}
	})
}
