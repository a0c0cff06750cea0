package fault_test

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/traffic"
)

// countsPlan lands an applied and a skipped event of every fault kind:
// single- and multi-bit upsets under ECC, a stuck bank (set twice, so the
// second is a no-op), an input-register flip, and link hits, each beside a
// twin whose target does not exist.
const countsPlan = `
@100 mem stage=any addr=any
@150 mem stage=2 addr=any bits=0x3
@200 mem stage=99 addr=0
@300 stuck stage=1
@301 stuck stage=1
@400 stuck stage=1 off
@500 inreg in=0 word=1 bits=0x1
@501 inreg in=9 word=0 bits=0x1
@600 linkdrop in=0 word=any
@601 linkdrop in=9 word=0
@700 linkcorrupt in=1 word=any bits=1
@701 linkcorrupt in=9 word=0 bits=1
`

// TestCountsEncodingPinned holds byte for byte what the switch's and the
// fault engine's event counts encode to — the checkpoint's
// SwitchState.Counters and EngineState.Counters, and the report pmsim
// prints under a fault run — over three runs that together move every
// count a switch checkpoint can hold and both tallies of every fault kind.
func TestCountsEncodingPinned(t *testing.T) {
	var out strings.Builder
	add := func(label string, v any) {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		out.WriteString(label + " " + string(b) + "\n")
	}

	// A saturated, ECC-protected, link-protected push-out run under the
	// plan: overrun and push-out drops, ECC corrections, uncorrectable and
	// hard errors, corrupt deliveries and words accessed off the commit.
	// It runs twice: straight through, and cut at cycle 1000 through a
	// checkpoint's JSON, so the counts also survive a restore.
	plan, err := fault.Parse(countsPlan)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []bool{false, true} {
		s, err := ckpt.New(ckpt.Spec{
			Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 8, ECC: true},
			Traffic: traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 3},
			Cycles:  2000, Policy: "pushout",
			Plan: plan, FaultSeed: 3, LinkProtect: true,
		}, ckpt.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if cut {
			if _, _, err := s.StepN(1000); err != nil {
				t.Fatal(err)
			}
			ck, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			b, err := json.Marshal(ck)
			if err != nil {
				t.Fatal(err)
			}
			var back ckpt.Checkpoint
			if err := json.Unmarshal(b, &back); err != nil {
				t.Fatal(err)
			}
			if s, err = ckpt.ResumeFrom(&back, ckpt.Options{}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := s.Run()
		if err != nil {
			t.Fatal(err)
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		add(fmt.Sprintf("fault-run cut=%v switch", cut), ck.Switch.Counters)
		add(fmt.Sprintf("fault-run cut=%v engine", cut), ck.Fault.Counters)
		out.WriteString(s.Report(res).String() + "\n")
	}

	// A dynamic-threshold run into a hot output: policy refusals.
	s, err := ckpt.New(ckpt.Spec{
		Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 8},
		Traffic: traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.5, Seed: 3},
		Cycles:  2000, Policy: "dt:alpha=1",
	}, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	add("policy-run switch", ck.Switch.Counters)

	// Multicast cells straight into a switch: multicast copies.
	sw, err := core.New(core.Config{Ports: 4, WordBits: 16, Cells: 16})
	if err != nil {
		t.Fatal(err)
	}
	k := sw.Config().Stages
	for i := range 3 {
		heads := make([]*cell.Cell, 4)
		heads[i] = cell.New(uint64(i+1), i, (i+1)%4, k, 16)
		heads[i].Copies = []int{(i + 2) % 4, (i + 3) % 4}
		sw.Tick(heads)
		for range k - 1 {
			sw.Tick(nil)
		}
	}
	for range 8 * k {
		sw.Tick(nil)
	}
	sw.Drain()
	st, err := sw.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	add("multicast switch", st.Counters)

	const want = `fault-run cut=false switch {"accepted":968,"corrupt":47,"delivered":862,"drop-overrun":32,"drop-pushout":106,"ecc-corrected":14,"ecc-hard":13,"ecc-uncorrectable":33,"offered":1000,"stage-words":775}
fault-run cut=false engine {"applied-inreg":1,"applied-linkcorrupt":1,"applied-linkdrop":1,"applied-mem":2,"applied-stuck":2,"skipped-inreg":1,"skipped-linkcorrupt":1,"skipped-linkdrop":1,"skipped-mem":1,"skipped-stuck":1}
corrupt=47 ecc-corrected=14 ecc-uncorrectable=33 ecc-hard=13 linkfailed=0 retransmits=2
faults: mem         applied=2 skipped=1
faults: stuck       applied=2 skipped=1
faults: inreg       applied=1 skipped=1
faults: linkdrop    applied=1 skipped=1
faults: linkcorrupt applied=1 skipped=1
fault-run cut=true switch {"accepted":968,"corrupt":47,"delivered":862,"drop-overrun":32,"drop-pushout":106,"ecc-corrected":14,"ecc-hard":13,"ecc-uncorrectable":33,"offered":1000,"stage-words":775}
fault-run cut=true engine {"applied-inreg":1,"applied-linkcorrupt":1,"applied-linkdrop":1,"applied-mem":2,"applied-stuck":2,"skipped-inreg":1,"skipped-linkcorrupt":1,"skipped-linkdrop":1,"skipped-mem":1,"skipped-stuck":1}
corrupt=47 ecc-corrected=14 ecc-uncorrectable=33 ecc-hard=13 linkfailed=0 retransmits=2
faults: mem         applied=2 skipped=1
faults: stuck       applied=2 skipped=1
faults: inreg       applied=1 skipped=1
faults: linkdrop    applied=1 skipped=1
faults: linkcorrupt applied=1 skipped=1
policy-run switch {"accepted":580,"delivered":580,"drop-policy":322,"offered":902}
multicast switch {"accepted":3,"delivered":9,"multicast-copies":6,"offered":3}
`
	if got := out.String(); got != want {
		t.Fatalf("counts encode as\n%s\nwant\n%s", got, want)
	}
}
