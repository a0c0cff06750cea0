package pipemem

import (
	"errors"
	"strings"
	"testing"
)

// TestFacadeBufferPolicy exercises the policy surface through the public
// API: parse a spec, install it, run traffic, and see the policy's drops
// in the breakdown; the constructors must parse-round-trip.
func TestFacadeBufferPolicy(t *testing.T) {
	p, err := ParseBufferPolicy("dt:alpha=0.5")
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
	if _, err := ParseBufferPolicy("bogus"); !errors.Is(err, ErrBadPolicy) {
		t.Errorf("bad spec error %v does not wrap ErrBadPolicy", err)
	}
	for _, p := range []BufferPolicy{
		NewCompleteSharing(), NewStaticPartition(4), NewDynamicThreshold(2),
		NewDelayDriven(128), NewPushOut(),
	} {
		back, err := ParseBufferPolicy(p.Name())
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
	res, err := RunFabric(f, TrafficConfig{Kind: Bernoulli, Load: 0.3, Seed: 5}, 1_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Corrupt != 0 {
		t.Fatalf("bad fabric run: %+v", res)
	}
}

// TestFacadeTiming exercises the exported timing model.
func TestFacadeTiming(t *testing.T) {
	if got := TelegraphosIIITiming().CycleNsWorst(); got != 16 {
		t.Fatalf("T3 timing %v", got)
	}
	if got := TelegraphosIITiming().CycleNsWorst(); got != 40 {
		t.Fatalf("T2 timing %v", got)
	}
	wide := WideMemoryTiming(8, 16)
	pip := StageTiming{WordlineBits: 16, Addr: AddrDecoder}
	if wide.CycleNsWorst() <= pip.CycleNsWorst() {
		t.Fatal("wide not slower")
	}
	if AddrDecoder == AddrPipelineReg {
		t.Fatal("address-source constants collide")
	}
}

// TestFacadeVCSwitch drives a VC Telegraphos switch through the facade.
func TestFacadeVCSwitch(t *testing.T) {
	sw, err := NewTelegraphosVC(TelegraphosII(), 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if sw.VCCredits(0, 1) != 4 {
		t.Fatal("VC credits not initialized through facade")
	}
	m := TelegraphosII()
	payload := make([]Word, m.Stages-1)
	pkts := make([]*TelegraphosPacket, m.Ports)
	pkts[0] = &TelegraphosPacket{Header: 1, Payload: payload, Seq: 1, VC: 1}
	sw.Tick(pkts)
	for i := 0; i < 6*m.Stages; i++ {
		sw.Tick(nil)
	}
	deps := sw.Drain()
	if len(deps) != 1 || deps[0].VC != 1 {
		t.Fatalf("VC packet mishandled: %+v", deps)
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

// TestFacadeClos drives the Clos network through the facade.
func TestFacadeClos(t *testing.T) {
	f, err := NewClos(ClosConfig{Radix: 4, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunFabric(f, TrafficConfig{Kind: Bernoulli, Load: 0.3, Seed: 5}, 1_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 || res.Corrupt != 0 {
		t.Fatalf("bad clos run: %+v", res)
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
