package pipemem

import (
	"strings"
	"testing"
)

// TestQuickstartAPI exercises the public facade end to end the way the
// README shows.
func TestQuickstartAPI(t *testing.T) {
	sw, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 8, Load: 0.5, Seed: 1}, sw.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraffic(sw, cs, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.Delivered == 0 {
		t.Fatalf("bad run: %+v", res)
	}
}

// TestFacadeArchConstructors: every §2 architecture is reachable through
// the facade and conserves cells.
func TestFacadeArchConstructors(t *testing.T) {
	must := func(a Arch, err error) Arch {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return a
	}
	archs := []Arch{
		NewInputFIFO(8, 64),
		must(NewVOQ(8, 64, "islip")),
		must(NewVOQ(8, 64, "pim")),
		must(NewVOQ(8, 64, "2drr")),
		NewOutputQueue(8, 64),
		NewSharedBufferArch(8, 256),
		NewCrosspoint(8, 8),
		must(NewBlockCrosspoint(8, 2, 64)),
		NewInputSmoothing(8, 16),
		must(NewSpeedupFabric(8, 64, 64, 2)),
	}
	for _, a := range archs {
		g, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 8, Load: 0.7, Seed: 5}, 1)
		if err != nil {
			t.Fatal(err)
		}
		r := RunArch(a, g, 1_000, 10_000)
		if r.Departed == 0 {
			t.Errorf("%s: nothing departed", a.Name())
		}
	}
}

// TestFacadeArchConstructorsRefuse: a value an architecture cannot be
// built with is an error naming it, not a panic.
func TestFacadeArchConstructorsRefuse(t *testing.T) {
	for _, c := range []struct {
		name  string
		build func() (Arch, error)
		want  string
	}{
		{"voq/unknown-scheduler", func() (Arch, error) { return NewVOQ(8, 64, "fifo") }, `"fifo"`},
		{"block-crosspoint/not-a-divisor", func() (Arch, error) { return NewBlockCrosspoint(16, 5, 64) }, "block size 5"},
		{"block-crosspoint/zero", func() (Arch, error) { return NewBlockCrosspoint(8, 0, 64) }, "block size 0"},
		{"speedup/zero", func() (Arch, error) { return NewSpeedupFabric(8, 64, 64, 0) }, "speedup 0"},
	} {
		t.Run(c.name, func(t *testing.T) {
			a, err := c.build()
			if err == nil || a != nil {
				t.Fatalf("built %v, err %v", a, err)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not name %s", err, c.want)
			}
		})
	}
}

// TestFacadeAnalytics spot-checks the re-exported closed forms.
func TestFacadeAnalytics(t *testing.T) {
	if HOLSaturation(2) != 0.75 {
		t.Error("HOLSaturation(2)")
	}
	if StaggeredInitiationDelay(0.4, 1000) > 0.1+1e-6 {
		t.Error("StaggeredInitiationDelay")
	}
	if AggregateGbps(256, 5) != 51.2 {
		t.Error("AggregateGbps")
	}
	if (Quantum{Links: 8, WordBits: 16}).Bits() != 256 {
		t.Error("Quantum")
	}
	if PrizmaCrossbarRatio(8, 256) != 16 {
		t.Error("PrizmaCrossbarRatio")
	}
	if CompareInputVsShared(16, 16, 80, 86).Advantage() <= 1 {
		t.Error("CompareInputVsShared")
	}
	m := DefaultAreaModel()
	if m.FixedMm2 <= 0 || m.RowMm2 <= 0 {
		t.Error("DefaultAreaModel")
	}
}

// TestFacadeTelegraphos drives a prototype through the facade.
func TestFacadeTelegraphos(t *testing.T) {
	sw, err := NewTelegraphos(TelegraphosIII(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Credits(0) != 8 {
		t.Fatal("credits not initialized")
	}
}

// TestFacadeBaselines drives the wide, PRIZMA and dual switches through
// the facade's one entry point.
func TestFacadeBaselines(t *testing.T) {
	ws, err := NewWide(WideConfig{Ports: 4, WordBits: 16, Cells: 64, CutThroughCrossbar: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 2}, ws.Config().CellWords)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ws, cs, 10_000); err != nil {
		t.Fatal(err)
	}

	ps, err := NewPrizma(PrizmaConfig{Ports: 4, Banks: 64, WordBits: 16})
	if err != nil {
		t.Fatal(err)
	}
	cs2, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 3}, ps.Config().CellWords)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ps, cs2, 10_000); err != nil {
		t.Fatal(err)
	}

	d, err := NewDual(Config{Ports: 4, WordBits: 16, Cells: 64, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	cs3, err := NewCellStream(TrafficConfig{Kind: Bernoulli, N: 4, Load: 0.5, Seed: 4}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(d, cs3, 10_000); err != nil {
		t.Fatal(err)
	}
}
