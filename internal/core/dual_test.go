package core

import (
	"errors"
	"testing"
	"testing/quick"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

func mustDual(t *testing.T, cfg Config) *DualSwitch {
	t.Helper()
	d, err := NewDual(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDualConfig(t *testing.T) {
	d := mustDual(t, Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true})
	if d.Config().Stages != 8 {
		t.Fatalf("stages = %d, want Ports = 8", d.Config().Stages)
	}
	if _, err := NewDual(Config{Ports: 8, Stages: 12, WordBits: 16, Cells: 8}); err == nil {
		t.Fatal("stages != ports accepted")
	}
	if _, err := NewDual(Config{Ports: 1, WordBits: 16, Cells: 8}); err == nil {
		t.Fatal("1-port dual accepted")
	}
	// What the half-quantum model does not implement is refused, not
	// silently dropped.
	for _, cfg := range []Config{
		{Ports: 4, Cells: 8, VCs: 3},
		{Ports: 4, Cells: 8, ECC: true},
		{Ports: 4, Cells: 8, ECC: true, BypassThreshold: 2},
		{Ports: 4, Cells: 8, LinkPipeline: 1},
		{Ports: 4, Cells: 8, NoReadPriority: true},
	} {
		if _, err := NewDual(cfg); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("%+v: got %v, want ErrBadConfig", cfg, err)
		}
	}
}

// TestDualSingleCell: one cell through an idle dual switch, intact, with
// cut-through timing (head out at cycle 2, cells are n words).
func TestDualSingleCell(t *testing.T) {
	d := mustDual(t, Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	k := 4
	c := cell.New(1, 0, 2, k, 16)
	d.Tick([]*cell.Cell{c.Clone(), nil, nil, nil})
	for i := 0; i < 4*k; i++ {
		d.Tick(nil)
	}
	deps := d.Drain()
	if len(deps) != 1 {
		t.Fatalf("%d departures, want 1", len(deps))
	}
	dep := deps[0]
	if !dep.Cell.Equal(c) {
		t.Fatal("cell corrupted through dual switch")
	}
	if dep.HeadOut-dep.HeadIn != 2 {
		t.Fatalf("cut-through latency %d, want 2", dep.HeadOut-dep.HeadIn)
	}
	if dep.TailOut-dep.HeadIn != int64(k)+1 {
		t.Fatalf("tail out at +%d, want +%d", dep.TailOut-dep.HeadIn, k+1)
	}
}

// TestDualFullRate is the §3.5 claim: with cells of HALF the canonical
// quantum (n words), the two-memory organization still sustains one write
// plus one read initiation per cycle, i.e. full throughput on all links.
func TestDualFullRate(t *testing.T) {
	const ports = 8
	d := mustDual(t, Config{Ports: ports, WordBits: 16, Cells: 128, CutThrough: true})
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: ports, Load: 1, Seed: 7}, ports)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(d, cs, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops at full rate", res.Dropped)
	}
	if res.Utilization < 0.98 {
		t.Fatalf("utilization %v, want ≈1 — half-quantum cells must not halve throughput", res.Utilization)
	}
}

// TestDualIntegrityRandom: bit-exact delivery under random traffic.
func TestDualIntegrityRandom(t *testing.T) {
	for _, load := range []float64{0.4, 0.9, 1.0} {
		const ports = 8
		d := mustDual(t, Config{Ports: ports, WordBits: 16, Cells: 128, CutThrough: true})
		kind := traffic.Bernoulli
		if load == 1.0 {
			kind = traffic.Saturation
		}
		cs, err := traffic.NewCellStream(traffic.Config{Kind: kind, N: ports, Load: load, Seed: 19}, ports)
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(d, cs, 20_000)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		if res.Corrupt != 0 || res.Delivered == 0 {
			t.Fatalf("load %v: delivered=%d corrupt=%d", load, res.Delivered, res.Corrupt)
		}
	}
}

// TestDualBankExclusive: in no cycle may both banks carry a fresh read, or
// a read and a write in the same bank (one port per memory per cycle).
func TestDualBankExclusive(t *testing.T) {
	const ports = 4
	d := mustDual(t, Config{Ports: ports, WordBits: 16, Cells: 32, CutThrough: true})
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 23}, ports)
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]int, ports)
	hc := make([]*cell.Cell, ports)
	var seq uint64
	for c := 0; c < 20_000; c++ {
		cs.Heads(heads)
		for i := range hc {
			hc[i] = nil
			if heads[i] != traffic.NoArrival {
				seq++
				hc[i] = cell.New(seq, i, heads[i], ports, 16)
			}
		}
		d.Tick(hc)
		// After Tick, ctrl[1] of each bank holds what stage 0 executed
		// this cycle (the pipeline shifted). Legal combinations per
		// cycle: at most one pure read across banks, at most one
		// write-kind op (OpWrite or OpWriteThrough — a write that also
		// taps the bus) across banks, never two ops in one bank.
		var reads, writes int
		outs := map[int]bool{}
		for b := 0; b < 2; b++ {
			op := d.banks[b].ctrl[1]
			switch op.Kind {
			case OpRead:
				reads++
				if outs[op.Out] {
					t.Fatalf("cycle %d: two drivers for output %d", c, op.Out)
				}
				outs[op.Out] = true
			case OpWriteThrough:
				writes++
				if outs[op.Out] {
					t.Fatalf("cycle %d: two drivers for output %d", c, op.Out)
				}
				outs[op.Out] = true
			case OpWrite:
				writes++
			}
		}
		if reads > 1 {
			t.Fatalf("cycle %d: %d pure reads", c, reads)
		}
		if writes > 1 {
			t.Fatalf("cycle %d: %d write waves", c, writes)
		}
		d.Drain()
	}
}

// TestDualQuick sweeps geometry and load.
func TestDualQuick(t *testing.T) {
	f := func(seed uint64, portsRaw, loadRaw uint8) bool {
		ports := 2 + int(portsRaw%7)
		load := 0.1 + float64(loadRaw%90)/100
		d, err := NewDual(Config{Ports: ports, WordBits: 16, Cells: 32, CutThrough: seed%2 == 0})
		if err != nil {
			return false
		}
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: load, Seed: seed}, ports)
		if err != nil {
			return false
		}
		res, err := Run(d, cs, 3_000)
		return err == nil && res.Corrupt == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
