package fabric

import (
	"errors"
	"reflect"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/clos"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/traffic"
)

// driveCollect runs a fabric under a traffic stream and collects the
// per-cycle delivered deltas — the finest-grained externally visible
// timeline.
func driveCollect(t *testing.T, f *Net, tcfg traffic.Config, cycles int) []int64 {
	t.Helper()
	tcfg.N = f.Terminals()
	cs, err := traffic.NewCellStream(tcfg, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	out := make([]int64, cycles)
	prev := int64(0)
	for i := 0; i < cycles; i++ {
		if err := f.Drive(cs, 1); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
		out[i] = f.Delivered() - prev
		prev = f.Delivered()
	}
	return out
}

// TestParallelBitIdentical proves the sharded engine is bit-identical to
// the sequential reference: same traffic → the same cells delivered in
// the same cycles, the same credit state, and the same latency histogram
// (including the order-sensitive float mean), at every worker count.
// 256 terminals of radix 2 give 1024 nodes — 16 occupancy words, so
// workers 2 and 4 genuinely shard. This test also runs under -race in CI
// (make race), which checks the cross-shard publication edges.
func TestParallelBitIdentical(t *testing.T) {
	cfg := Config{
		Terminals: 256, Radix: 2, WordBits: 16, SwitchCells: 16,
		Credits: 4, CutThrough: true,
	}
	traffics := []traffic.Config{
		{Kind: traffic.Saturation, Seed: 909},
		{Kind: traffic.Hotspot, Load: 0.8, HotFrac: 0.3, Seed: 910},
	}
	const cycles = 700
	for _, tc := range traffics {
		cfg.Workers = 1
		ref, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		refTimeline := driveCollect(t, ref, tc, cycles)
		for _, workers := range []int{2, 4} {
			cfg.Workers = workers
			par, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			timeline := driveCollect(t, par, tc, cycles)
			if !reflect.DeepEqual(timeline, refTimeline) {
				for i := range timeline {
					if timeline[i] != refTimeline[i] {
						t.Fatalf("%s workers=%d: delivered delta diverges at cycle %d: %d vs %d",
							tc.Kind, workers, i, timeline[i], refTimeline[i])
					}
				}
			}
			if par.Injected() != ref.Injected() || par.Delivered() != ref.Delivered() {
				t.Fatalf("%s workers=%d: totals %d/%d vs %d/%d", tc.Kind, workers,
					par.Injected(), par.Delivered(), ref.Injected(), ref.Delivered())
			}
			if !reflect.DeepEqual(par.CreditState(), ref.CreditState()) {
				t.Fatalf("%s workers=%d: credit state diverged", tc.Kind, workers)
			}
			if !reflect.DeepEqual(par.Latency().State(), ref.Latency().State()) {
				t.Fatalf("%s workers=%d: latency histogram diverged", tc.Kind, workers)
			}
			for st := 0; st < par.Stages(); st++ {
				if !reflect.DeepEqual(par.ArrivalsAt(st), ref.ArrivalsAt(st)) {
					t.Fatalf("%s workers=%d: stage %d arrival counts diverged", tc.Kind, workers, st)
				}
			}
			if err := par.Audit(); err != nil {
				t.Fatalf("%s workers=%d: audit: %v", tc.Kind, workers, err)
			}
			par.Close()
		}
		ref.Close()
	}
}

// TestStepZeroAlloc is the regression test for the Step hot loop: after
// warmup the whole inject+step cycle — ring distribution, every node's
// Tick, the last stage's departure sinks, flight bookkeeping, ejection
// verification — allocates nothing. A cell goes back to the inject pool only at ejection
// or drop, so the second net, which has no flow control and drops at
// stages ≥ 1, shows that drop retirement keeps the pool balanced too.
// (This is the plain path; TestNetsAcrossWorkers counts the same with
// flight tracing armed, on both topologies.)
func TestStepZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name           string
		credits, cells int
	}{
		{"saturated", 4, 32},
		{"interior-drops", 0, 8},
	} {
		f, err := New(Config{
			Terminals: 64, Radix: 8, WordBits: 16, SwitchCells: tc.cells,
			Credits: tc.credits, CutThrough: true, Workers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 11, N: 64}, f.CellWords())
		if err != nil {
			t.Fatal(err)
		}
		drive := func(n int64) {
			if err := f.Drive(cs, n); err != nil {
				t.Fatal(err)
			}
		}
		drive(4096) // warm pools, rings, staging buffers
		before := f.InteriorDrops()
		if allocs := testing.AllocsPerRun(200, func() { drive(1) }); allocs != 0 {
			t.Fatalf("%s: %.1f allocs per steady-state fabric cycle, want 0", tc.name, allocs)
		}
		if dropped := f.InteriorDrops() > before; dropped != (tc.credits == 0) {
			t.Fatalf("%s: interior drops during the measured cycles: %v", tc.name, dropped)
		}
	}
}

func TestBadPolicySpec(t *testing.T) {
	_, err := New(Config{
		Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 8,
		Credits: 2, Policy: "nonsense:key=val",
	})
	if !errors.Is(err, bufmgr.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
	if err := (Config{
		Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 8,
		Policy: "dt:alpha=wat",
	}).Validate(); !errors.Is(err, bufmgr.ErrBadConfig) {
		t.Fatalf("Validate err = %v, want ErrBadConfig", err)
	}
}

// TestPolicyPlumbs checks a real policy reaches the nodes: a tiny static
// partition on stage-0 switches must drop under saturation where
// complete sharing would not, without breaking fabric integrity.
func TestPolicyPlumbs(t *testing.T) {
	run := func(policy string) (engine.Result, int64) {
		f, err := New(Config{
			Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 8,
			Credits: 0, CutThrough: true, Policy: policy,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		res, err := f.Run(traffic.Config{Kind: traffic.Saturation, Seed: 77}, 200, 800)
		if err != nil {
			t.Fatal(err)
		}
		var polDrops int64
		for st := 0; st < f.Stages(); st++ {
			for i := range f.ArrivalsAt(st) {
				polDrops += f.NodeAt(st, i).Counts().DropPolicy
			}
		}
		return res, polDrops
	}
	share, sharePol := run("")
	part, partPol := run("static:quota=1")
	if part.Corrupt != 0 || share.Corrupt != 0 {
		t.Fatal("corruption under policy plumb")
	}
	if part.Delivered == 0 {
		t.Fatal("static partition delivered nothing")
	}
	if sharePol != 0 {
		t.Fatalf("complete sharing booked %d policy drops", sharePol)
	}
	if partPol == 0 {
		t.Fatal("static:quota=1 never refused a cell under saturation — policy not applied")
	}
}

// TestLossAccounting is the regression test for the fabric report losing
// policy drops: under every admission policy, with and without credits, on
// both topologies at saturation, Drops is every flight the net retired as
// lost (so the conservation identity closes on the report's own numbers)
// and InteriorDrops is exactly what the nodes at stages ≥ 1 booked, in
// every loss mode.
func TestLossAccounting(t *testing.T) {
	var lostInside int64
	for _, policy := range bufmgr.Specs() {
		for _, credits := range []int{0, 4} {
			nets := map[string]func() (*Net, error){
				"butterfly": func() (*Net, error) {
					return New(Config{Terminals: 64, Radix: 4, WordBits: 16, SwitchCells: 16,
						Credits: credits, CutThrough: true, Policy: policy})
				},
				"clos": func() (*Net, error) {
					return clos.New(clos.Config{Radix: 4, Middles: 3, WordBits: 16, SwitchCells: 16,
						Credits: credits, CutThrough: true, Policy: policy})
				},
			}
			for name, build := range nets {
				f, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Run(traffic.Config{Kind: traffic.Saturation, Seed: 42}, 0, 3000)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.Audit(); err != nil {
					t.Fatal(err)
				}
				var interior int64
				for st := 1; st < f.Stages(); st++ {
					for i := range f.ArrivalsAt(st) {
						interior += f.NodeAt(st, i).DroppedCells()
					}
				}
				if res.Injected != res.Delivered+res.Drops+int64(f.InFlight()) || res.InteriorDrops != interior {
					t.Errorf("%s %q credits=%d: injected %d, delivered %d + drops %d + in flight %d; interior drops %d, nodes at stages ≥ 1 booked %d",
						name, policy, credits, res.Injected, res.Delivered, res.Drops, f.InFlight(), res.InteriorDrops, interior)
				}
				if credits > 0 {
					lostInside += res.InteriorDrops
				}
			}
		}
	}
	if lostInside == 0 {
		t.Error("no policy refused a cell behind a credit-protected link: the interior tally was never exercised with credits on")
	}
}
