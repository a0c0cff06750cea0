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

// TestDualBankExclusive: a memory has one port, so in no cycle may one bank
// take two initiations — the read wave and the write wave of a cycle go to
// different banks — and no output may be claimed by two waves. The waves
// of a cycle are read back from the bookkeeping they leave: a transmission
// booked this cycle (read or write-through, with the node it came from) and
// a descriptor whose write wave started this cycle.
func TestDualBankExclusive(t *testing.T) {
	const ports, cells = 4, 32
	d := mustDual(t, Config{Ports: ports, WordBits: 16, Cells: cells, CutThrough: true})
	sched := genSchedule(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 23}, ports, 20_000)
	hc := make([]*cell.Cell, ports)
	var seq uint64
	both := 0
	for c := int64(0); c < int64(len(sched)); c++ {
		d.Tick(headsFor(sched[c], hc, &seq, ports, 16, 1))
		readBank, writeBank := -1, -1
		for _, op := range d.initiated(c) {
			switch {
			case op.Kind == OpRead && readBank < 0:
				readBank = op.Addr / cells
			case op.Kind == OpWriteThrough && writeBank < 0:
				writeBank = op.Addr / cells
			default:
				t.Fatalf("cycle %d: a second %v wave was initiated", c, op.Kind)
			}
		}
		for node := range d.descs {
			if dsc := &d.descs[node]; dsc.c != nil && dsc.writeStart == c {
				if writeBank >= 0 {
					t.Fatalf("cycle %d: two write waves", c)
				}
				writeBank = node / cells
			}
		}
		if readBank >= 0 && readBank == writeBank {
			t.Fatalf("cycle %d: read and write wave both initiated in bank %d", c, readBank)
		}
		if readBank >= 0 && writeBank >= 0 {
			both++
		}
		d.Drain()
	}
	if both < len(sched)/4 {
		t.Fatalf("only %d of %d cycles initiated a read and a write together; §3.5's point is that most can", both, len(sched))
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
