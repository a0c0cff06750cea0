package fault

import (
	"fmt"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// TestStageBypassStuck is the graceful-degradation acceptance run: bank 2
// sticks at cycle 500; the ECC layer sees its reads fail, the bypass
// threshold trips, the bank is mapped out, and the switch keeps delivering
// — at half buffer capacity — with every post-bypass cell intact.
// Switch.Health() must report the whole story.
func TestStageBypassStuck(t *testing.T) {
	const (
		cycles  = 20_000
		stuckAt = 500
	)
	// Store-and-forward: with cut-through and idle outputs every cell
	// would ride the data bus and never read the banks, so the stuck bank
	// would go unnoticed.
	cfg := core.Config{Ports: 2, WordBits: 16, Cells: 8, ECC: true, BypassThreshold: 3}
	s := mustSwitch(t, cfg)
	k := s.Config().Stages
	plan := mustPlan(t, fmt.Sprintf("@%d stuck stage=2", stuckAt))
	eng := NewEngine(plan, 7)

	// Deterministic alternating traffic: input 0 → output 1, input 1 →
	// output 0, a new cell every 2k cycles per input.
	var seq uint64
	sums := make(map[uint64]uint64)
	offeredAt := make(map[uint64]int64)
	var offered, delivered, corrupt int64
	var tripCycle int64 = -1
	var deliveredAfterTrip, corruptAfterTrip int64
	heads := make([]*cell.Cell, 2)
	for c := int64(0); c < cycles; c++ {
		eng.Step(Target{Switch: s}, c)
		for i := range heads {
			heads[i] = nil
			if c%int64(2*k) == 0 {
				seq++
				nc := cell.New(seq, i, 1-i, k, 16)
				sums[seq] = nc.Checksum()
				offeredAt[seq] = c
				heads[i] = nc
				offered++
			}
		}
		s.Tick(heads)
		if tripCycle < 0 && s.Health().StageDown[2] {
			tripCycle = c
		}
		for _, d := range s.Drain() {
			delivered++
			clean := d.Cell.Checksum() == sums[d.Cell.Seq]
			if !clean {
				corrupt++
			}
			if tripCycle >= 0 && offeredAt[d.Cell.Seq] > tripCycle {
				deliveredAfterTrip++
				if !clean {
					corruptAfterTrip++
				}
			}
		}
	}
	for c := 0; c < 8*k*(cfg.Cells+2) && s.Resident() > 0; c++ {
		s.Tick(nil)
		for _, d := range s.Drain() {
			delivered++
			if d.Cell.Checksum() == sums[d.Cell.Seq] {
				if tripCycle >= 0 && offeredAt[d.Cell.Seq] > tripCycle {
					deliveredAfterTrip++
				}
			} else {
				corrupt++
			}
		}
	}

	h := s.Health()
	if tripCycle < 0 || !h.StageDown[2] {
		t.Fatalf("stuck bank 2 never mapped out (health %+v)", h)
	}
	if tripCycle < stuckAt {
		t.Fatalf("bypass tripped at cycle %d, before the fault at %d", tripCycle, stuckAt)
	}
	if !h.Degraded || h.Failed {
		t.Fatalf("health = %+v, want degraded but not failed", h)
	}
	if h.UsableCells != cfg.Cells/2 {
		t.Fatalf("usable capacity %d, want %d (halved)", h.UsableCells, cfg.Cells/2)
	}
	if got := s.FreeCells(); got != cfg.Cells/2 {
		t.Fatalf("free list rebuilt to %d addresses, want %d", got, cfg.Cells/2)
	}
	if len(h.Bypassed) != 1 || h.Bypassed[0] != 2 {
		t.Fatalf("bypassed = %v, want [2]", h.Bypassed)
	}
	if h.ECCUncorrectable+h.ECCHard < int64(cfg.BypassThreshold) {
		t.Fatalf("uncorrectable %d + hard %d below the threshold that supposedly tripped",
			h.ECCUncorrectable, h.ECCHard)
	}
	// Graceful degradation: traffic offered after the bypass still flows,
	// and none of it is corrupted (the stuck bank is out of the data path).
	if deliveredAfterTrip < 100 {
		t.Fatalf("only %d cells delivered after the bypass; switch did not keep running", deliveredAfterTrip)
	}
	if corruptAfterTrip != 0 {
		t.Fatalf("%d post-bypass cells corrupted; the mapped-out bank is still in the data path", corruptAfterTrip)
	}
	// Detection happened at all (pre-bypass reads of the stuck bank).
	if corrupt == 0 {
		t.Fatal("no corruption observed at the fault onset; the stuck model is vacuous")
	}
	// Conservation: every offered cell is accounted for.
	drops := s.Counters().Get("drop-overrun") + s.Counters().Get("drop-bypass")
	if delivered+drops+int64(s.Resident()) != offered {
		t.Fatalf("conservation violated: offered %d ≠ delivered %d + dropped %d + resident %d",
			offered, delivered, drops, s.Resident())
	}
}

// TestManualMapOut: the maintenance path — mapping out a healthy bank by
// hand between ticks — halves capacity immediately and traffic keeps
// flowing intact (nothing was wrong with the data, so nothing is lost but
// the flushed residents).
func TestManualMapOut(t *testing.T) {
	s := mustSwitch(t, core.Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	if err := s.MapOutStage(99); err == nil {
		t.Fatal("out-of-range stage accepted")
	}
	if err := s.MapOutStage(1); err != nil {
		t.Fatal(err)
	}
	h := s.Health()
	if !h.Degraded || !h.StageDown[1] || h.UsableCells != 4 {
		t.Fatalf("health after manual map-out = %+v", h)
	}
	k := s.Config().Stages
	var seq uint64
	var delivered int64
	for c := int64(0); c < int64(60*k); c++ {
		var heads []*cell.Cell
		if c%int64(2*k) == 0 {
			seq++
			heads = []*cell.Cell{cell.New(seq, 0, 1, k, 16), nil}
		}
		s.Tick(heads)
		for _, d := range s.Drain() {
			delivered++
			if !d.Cell.Equal(d.Expected) {
				t.Fatalf("cell %d corrupted through the bypass remap", d.Cell.Seq)
			}
		}
	}
	if delivered == 0 {
		t.Fatal("no deliveries through a degraded switch")
	}
	// The second bank of the pair going down is fatal.
	if err := s.MapOutStage(0); err != nil {
		t.Fatal(err)
	}
	if h := s.Health(); !h.Failed {
		t.Fatalf("losing both banks of a pair must raise Failed (health %+v)", h)
	}
}
