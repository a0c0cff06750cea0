package core

import (
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// TestLeanSwitchLetsGoOfTransmittedCells pins the contract the multistage
// fabric's forwarding rests on: once the Tick that ran its transmit hook
// returns, a lean switch never reads the cell again. The hook here scribbles
// over the departing cell's Seq, Dst and Words. The lean switch must still
// deliver and drop exactly what an untouched twin does, every cycle, while
// its Drain hands out nothing, offered = delivered + dropped + resident, and
// AuditInvariants holds.
func TestLeanSwitchLetsGoOfTransmittedCells(t *testing.T) {
	const ports = 4
	for _, cells := range []int{2, 64} { // 2 overruns at saturation; 64 queues deep
		cfg := Config{Ports: ports, WordBits: 16, Cells: cells, CutThrough: true}
		lean, twin := mustSwitch(t, cfg), mustSwitch(t, cfg)
		lean.SetLeanDepartures(true)
		lean.SetDrainRecycle(true)
		var sent int64
		lean.SetTransmitCellHook(func(_ int, c *cell.Cell, _ int64) {
			sent++
			c.Seq, c.Dst = ^uint64(0), -1
			for i := range c.Words {
				c.Words[i] = ^c.Words[i]
			}
		})
		k := lean.Config().Stages
		cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 3}, k)
		dst := make([]int, ports)
		var seq uint64
		for cyc := 0; cyc < 4000; cyc++ {
			cs.Heads(dst)
			hl, ht := make([]*cell.Cell, ports), make([]*cell.Cell, ports)
			for i, d := range dst {
				if d != traffic.NoArrival {
					seq++
					hl[i], ht[i] = cell.New(seq, i, d, k, 16), cell.New(seq, i, d, k, 16)
				}
			}
			lean.Tick(hl)
			twin.Tick(ht)
			if deps := lean.Drain(); len(deps) != 0 {
				t.Fatalf("cells=%d cycle %d: a lean switch drained %d departures", cells, cyc, len(deps))
			}
			twin.Drain()
			lc, tc := &lean.counts, &twin.counts
			if lc.Delivered != tc.Delivered || lean.DroppedCells() != twin.DroppedCells() {
				t.Fatalf("cells=%d cycle %d: lean delivered %d dropped %d, twin %d and %d", cells, cyc,
					lc.Delivered, lean.DroppedCells(), tc.Delivered, twin.DroppedCells())
			}
			if off, got := lc.Offered, lc.Delivered+lean.DroppedCells()+int64(lean.Resident()); off != got {
				t.Fatalf("cells=%d cycle %d: offered %d, delivered+dropped+resident %d", cells, cyc, off, got)
			}
			if err := lean.AuditInvariants(); err != nil {
				t.Fatalf("cells=%d cycle %d: %v", cells, cyc, err)
			}
		}
		if sent == 0 || lean.counts.Corrupt != 0 || twin.counts.Corrupt != 0 {
			t.Fatalf("cells=%d: %d transmissions, corrupt lean %d twin %d", cells, sent,
				lean.counts.Corrupt, twin.counts.Corrupt)
		}
		if cells == 2 && lean.DroppedCells() == 0 {
			t.Fatal("no drops with a 2-cell buffer at saturation; the loss path is untested")
		}
	}
}
