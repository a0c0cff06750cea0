package fabric

import (
	"testing"

	"pipemem/internal/traffic"
)

// BenchmarkFabricStep is the ledger's fabric64-sat shape — 64 terminals,
// radix 8, 32-cell nodes, 4 credits per link, one worker, saturated
// terminals — stepped b.N cycles after a 4096-cycle warm-up. It reports the
// delivered cells per second and the allocations per step (0 in steady
// state). `make profile PKG=./internal/fabric BENCH=FabricStep` reads its
// CPU profile.
func BenchmarkFabricStep(b *testing.B) {
	f, err := New(Config{
		Terminals: 64, Radix: 8, WordBits: 16, SwitchCells: 32,
		Credits: 4, CutThrough: true, Workers: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 11, N: 64}, f.CellWords())
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Drive(cs, 4096); err != nil {
		b.Fatal(err)
	}
	start := f.Delivered()
	b.ResetTimer()
	b.ReportAllocs()
	if err := f.Drive(cs, int64(b.N)); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(f.Delivered()-start)/b.Elapsed().Seconds(), "cells/s")
}
