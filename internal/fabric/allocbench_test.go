package fabric

import (
	"testing"

	"pipemem/internal/traffic"
)

func BenchmarkStepAlloc(b *testing.B) {
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
	b.ResetTimer()
	b.ReportAllocs()
	if err := f.Drive(cs, int64(b.N)); err != nil {
		b.Fatal(err)
	}
}
