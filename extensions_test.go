package pipemem

import (
	"errors"
	"strings"
	"testing"
)

// TestExtensionIndex: the extension experiments are present and well-formed.
func TestExtensionIndex(t *testing.T) {
	exts := ExtensionExperiments()
	if len(exts) != 6 {
		t.Fatalf("%d extension experiments, want 6", len(exts))
	}
	for i, e := range exts {
		want := "X" + string(rune('1'+i))
		if e.ID != want {
			t.Fatalf("extension %d has id %s, want %s", i, e.ID, want)
		}
		if e.Run == nil || e.Title == "" || e.Ref == "" {
			t.Fatalf("extension %s incomplete", e.ID)
		}
	}
}

// TestX1X2Pass: the cheap extension experiments pass at Quick scale.
func TestX1X2Pass(t *testing.T) {
	for _, e := range ExtensionExperiments() {
		if e.ID == "X3" || e.ID == "X4" || e.ID == "X5" || e.ID == "X6" {
			continue // simulation-heavy; covered by the dedicated tests
		}
		res, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !res.Pass() {
			t.Errorf("%s failed:\n%s", e.ID, res)
		}
	}
}

// TestX3Pass runs the fabric extension; skipped with -short.
func TestX3Pass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; run without -short")
	}
	res, err := X3Fabric(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Errorf("X3 failed:\n%s", res)
	}
}

// TestX4Pass runs the Clos extension; skipped with -short.
func TestX4Pass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; run without -short")
	}
	res, err := X4Clos(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Errorf("X4 failed:\n%s", res)
	}
}

// TestX5Pass runs the buffer-policy matrix — this is the PR's acceptance
// criterion: under hotspot overload the dynamic threshold must lose
// strictly fewer cold-port cells than both static partitioning and
// complete sharing. Skipped with -short.
func TestX5Pass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; run without -short")
	}
	res, err := X5BufferPolicies(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Errorf("X5 failed:\n%s", res)
	}
}

// TestX6Pass runs the sharded-fabric-engine extension: bit-identity
// across worker counts at Quick scale. Skipped with -short.
func TestX6Pass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; run without -short")
	}
	res, err := X6FabricScale(Quick)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Pass() {
		t.Errorf("X6 failed:\n%s", res)
	}
}

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
