package pipemem

import (
	"errors"
	"strings"
	"testing"

	"pipemem/internal/bufmgr"
)

// TestFacadeBufferPolicy installs a parsed policy on the facade's switch
// (the tools take it as a -bufpolicy spec), runs traffic and sees the
// policy's drops in the breakdown; every policy value must
// parse-round-trip through its name.
func TestFacadeBufferPolicy(t *testing.T) {
	p, err := bufmgr.Parse("dt:alpha=0.5")
	if err != nil {
		t.Fatal(err)
	}
	sw, err := New(Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	sw.SetBufferPolicy(p)
	cs, err := NewCellStream(TrafficConfig{Kind: Hotspot, N: 4, Load: 0.9, HotFrac: 0.7, Seed: 33}, sw.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraffic(sw, cs, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DropPolicy == 0 {
		t.Error("dynamic threshold never refused an arrival under hotspot overload")
	}
	if _, err := bufmgr.Parse("bogus"); !errors.Is(err, bufmgr.ErrBadConfig) {
		t.Errorf("bad spec error %v does not wrap bufmgr.ErrBadConfig", err)
	}
	for _, p := range []bufmgr.Policy{
		bufmgr.CompleteSharing{}, bufmgr.StaticPartition{Quota: 4}, bufmgr.DynamicThreshold{Alpha: 2},
		bufmgr.DelayDriven{Target: 128}, bufmgr.PushOutLQF{},
	} {
		back, err := bufmgr.Parse(p.Name())
		if err != nil {
			t.Errorf("constructor policy %q does not re-parse: %v", p.Name(), err)
		} else if back != p {
			t.Errorf("round trip changed %q to %#v", p.Name(), back)
		}
	}
}

// TestFacadeFabric drives the multistage fabric through the facade.
func TestFacadeFabric(t *testing.T) {
	f, err := NewFabric(FabricConfig{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Run(TrafficConfig{Kind: Bernoulli, Load: 0.3, Seed: 5}, 1_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Corrupt != 0 {
		t.Fatalf("bad fabric run: %+v", res)
	}
}

// TestCoreVCThroughFacade: the Config.VCs knob works from the facade.
func TestCoreVCThroughFacade(t *testing.T) {
	sw, err := New(Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true, VCs: 2})
	if err != nil {
		t.Fatal(err)
	}
	k := sw.Config().Stages
	c := NewCell(1, 0, 2, k, 16)
	c.VC = 1
	sw.Tick([]*Cell{c, nil, nil, nil})
	for i := 0; i < 4*k; i++ {
		sw.Tick(nil)
	}
	deps := sw.Drain()
	if len(deps) != 1 || deps[0].VC != 1 {
		t.Fatalf("VC lost through facade: %+v", deps)
	}
}

// TestLinkPipelineThroughFacade: the Config.LinkPipeline knob works.
func TestLinkPipelineThroughFacade(t *testing.T) {
	sw, err := New(Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true, LinkPipeline: 2})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 2, Load: 0.3, Seed: 7}, sw.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraffic(sw, cs, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.MinCutLatency != 6 { // 2 + 2R
		t.Fatalf("min latency %d, want 6", res.MinCutLatency)
	}
}

// TestExpResultRendering: String and Markdown carry the row content.
func TestExpResultRendering(t *testing.T) {
	r := ExpResult{
		ID: "T", Title: "test", Ref: "§0",
		Rows:  []ExpRow{{Label: "l", Paper: "p", Measured: "m", OK: true}},
		Notes: "n",
	}
	for _, s := range []string{r.String(), r.Markdown()} {
		for _, want := range []string{"l", "p", "m", "n"} {
			if !strings.Contains(s, want) {
				t.Fatalf("rendering %q missing %q", s, want)
			}
		}
	}
	if !r.Pass() {
		t.Fatal("should pass")
	}
	r.Rows = append(r.Rows, ExpRow{OK: false})
	if r.Pass() {
		t.Fatal("should fail")
	}
	if !strings.Contains(r.String(), "MISMATCH") {
		t.Fatal("failed row not marked")
	}
}

// TestFacadeVCD exercises the exported waveform writer.
func TestFacadeVCD(t *testing.T) {
	sw, err := New(Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	var buf strings.Builder
	vw := NewVCDWriter(&buf, sw, 16)
	sw.SetTracer(vw.Trace)
	sw.Tick([]*Cell{NewCell(1, 0, 1, sw.Config().Stages, 16), nil})
	for i := 0; i < 12; i++ {
		sw.Tick(nil)
	}
	if vw.Err() != nil {
		t.Fatal(vw.Err())
	}
	if !strings.Contains(buf.String(), "$enddefinitions $end") {
		t.Fatal("VCD header missing")
	}
}
