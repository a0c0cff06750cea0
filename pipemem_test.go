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

// TestExperimentIndexComplete: every DESIGN.md experiment id appears
// exactly once and runs at Quick scale without error.
func TestExperimentIndexComplete(t *testing.T) {
	exps := Experiments()
	if len(exps) != 14 {
		t.Fatalf("%d experiments, want 14 (E1–E14)", len(exps))
	}
	seen := map[string]bool{}
	for _, e := range exps {
		if seen[e.ID] {
			t.Fatalf("duplicate experiment id %s", e.ID)
		}
		seen[e.ID] = true
		if e.Title == "" || e.Ref == "" || e.Run == nil {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
	for i := 1; i <= 14; i++ {
		id := "E" + itoa(i)
		if !seen[id] {
			t.Fatalf("missing experiment %s", id)
		}
	}
}

func itoa(i int) string {
	if i < 10 {
		return string(rune('0' + i))
	}
	return string(rune('0'+i/10)) + string(rune('0'+i%10))
}

// TestFastExperimentsPass runs the cheap experiments (pure arithmetic and
// short RTL scenarios) and requires every row's shape check to hold. The
// heavyweight simulation experiments are covered by their packages' own
// tests and by the benchmarks.
func TestFastExperimentsPass(t *testing.T) {
	fast := map[string]bool{"E6": true, "E7": true, "E8": true, "E9": true,
		"E10": true, "E11": true, "E12": true, "E13": true, "E14": true}
	for _, e := range Experiments() {
		if !fast[e.ID] {
			continue
		}
		res, err := e.Run(Quick)
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if !res.Pass() {
			t.Errorf("%s failed:\n%s", e.ID, res)
		}
		if !strings.Contains(res.Markdown(), "| Quantity |") {
			t.Errorf("%s: markdown rendering broken", e.ID)
		}
	}
}

// TestSlowExperimentsPass runs the statistics-heavy experiments at Quick
// scale; skipped with -short. E2's measured column is pinned as well: the
// wormhole nets are deterministic, and a refactor of them must not move a
// row.
func TestSlowExperimentsPass(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy; run without -short")
	}
	e2 := []string{"0.436", "0.603", "0.592", "0.356", "0.474", "0.535"}
	for _, e := range Experiments() {
		switch e.ID {
		case "E1", "E2", "E3", "E4", "E5":
			res, err := e.Run(Quick)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if !res.Pass() {
				t.Errorf("%s failed:\n%s", e.ID, res)
			}
			if e.ID != "E2" {
				continue
			}
			if len(res.Rows) != len(e2) {
				t.Fatalf("E2: %d rows, want %d", len(res.Rows), len(e2))
			}
			for i, row := range res.Rows {
				if row.Measured != e2[i] {
					t.Errorf("E2 row %q: measured %s, pinned %s", row.Label, row.Measured, e2[i])
				}
			}
		}
	}
}

// TestFacadeArchConstructors: every §2 architecture is reachable through
// the facade and conserves cells.
func TestFacadeArchConstructors(t *testing.T) {
	archs := []Arch{
		NewInputFIFO(8, 64),
		NewVOQ(8, 64, "islip"),
		NewVOQ(8, 64, "pim"),
		NewVOQ(8, 64, "2drr"),
		NewOutputQueue(8, 64),
		NewSharedBufferArch(8, 256),
		NewCrosspoint(8, 8),
		NewBlockCrosspoint(8, 2, 64),
		NewInputSmoothing(8, 16),
		NewSpeedupFabric(8, 64, 64, 2),
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

// TestFacadeAnalytics spot-checks the re-exported closed forms.
func TestFacadeAnalytics(t *testing.T) {
	if HOLSaturation(2) != 0.75 {
		t.Error("HOLSaturation(2)")
	}
	if StaggeredInitiationDelay(0.4, 1000) > 0.1+1e-6 {
		t.Error("StaggeredInitiationDelay")
	}
	if OutputQueueWait(16, 0.8) <= 0 {
		t.Error("OutputQueueWait")
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
	if len(TelegraphosModels()) != 3 {
		t.Fatal("want 3 prototypes")
	}
	sw, err := NewTelegraphos(TelegraphosIII(), 8)
	if err != nil {
		t.Fatal(err)
	}
	if sw.Credits(0) != 8 {
		t.Fatal("credits not initialized")
	}
}

// TestFacadeWormhole drives the wormhole model through the facade.
func TestFacadeWormhole(t *testing.T) {
	w, err := NewWormhole(WormholeConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Load: 0.1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	r, err := RunWormhole(w, 2_000, 10_000)
	if err != nil {
		t.Fatal(err)
	}
	if r.DeliveredFlits == 0 {
		t.Fatal("nothing delivered")
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
