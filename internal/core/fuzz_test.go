package core

import (
	"testing"

	"pipemem/internal/cell"
)

// FuzzSwitchTraffic feeds the RTL switch an arbitrary byte string
// interpreted as a per-cell-time injection schedule and requires the full
// invariant set to hold: no corruption, conservation, and clean drains.
// Run with `go test -fuzz=FuzzSwitchTraffic ./internal/core` to explore;
// the seed corpus runs in normal `go test`.
func FuzzSwitchTraffic(f *testing.F) {
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, false)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, false)
	f.Add([]byte{}, false)
	f.Add([]byte{0x00, 0x80, 0x40, 0xc0, 0x20, 0xa0}, false)
	f.Add([]byte{0x01, 0x23, 0x45, 0x67, 0x89, 0xab, 0xcd, 0xef}, true)
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f, 0xf0}, true)
	f.Fuzz(func(t *testing.T, schedule []byte, ecc bool) {
		if len(schedule) > 512 {
			schedule = schedule[:512]
		}
		const ports = 4
		s, err := New(Config{Ports: ports, WordBits: 16, Cells: 8, CutThrough: true, ECC: ecc})
		if err != nil {
			t.Fatal(err)
		}
		k := s.Config().Stages
		var seq uint64
		offered, delivered := 0, 0
		// Each schedule byte controls one cell time: bit i set → input
		// i%4 injects a cell to output (b>>4)%4 variants.
		for ci, b := range schedule {
			heads := make([]*cell.Cell, ports)
			for i := 0; i < ports; i++ {
				if b&(1<<i) != 0 {
					seq++
					dst := (int(b>>4) + i) % ports
					heads[i] = cell.New(seq, i, dst, k, 16)
					offered++
				}
			}
			s.Tick(heads)
			for j := 1; j < k; j++ {
				s.Tick(nil)
			}
			_ = ci
			for _, d := range s.Drain() {
				if !d.Cell.Equal(d.Expected) {
					t.Fatalf("corruption for schedule %x", schedule)
				}
				delivered++
			}
		}
		// Drain fully.
		for j := 0; j < (8+4)*k*4; j++ {
			s.Tick(nil)
			for _, d := range s.Drain() {
				if !d.Cell.Equal(d.Expected) {
					t.Fatalf("late corruption for schedule %x", schedule)
				}
				delivered++
			}
		}
		dropped := int(s.counts.DropOverrun)
		if delivered+dropped != offered {
			t.Fatalf("conservation: offered %d, delivered %d, dropped %d (schedule %x)",
				offered, delivered, dropped, schedule)
		}
		if s.counts.Corrupt != 0 {
			t.Fatalf("corrupt counter nonzero for schedule %x", schedule)
		}
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("schedule %x: %v", schedule, err)
		}
	})
}

// FuzzCellChecksum: any single byte-level perturbation of a cell changes
// its checksum (collision-freedom in practice for small edits).
func FuzzCellChecksum(f *testing.F) {
	f.Add(uint64(1), uint8(0), uint8(1), uint8(3), uint64(1))
	f.Fuzz(func(t *testing.T, seq uint64, src, dst, wordIdx uint8, flip uint64) {
		if flip == 0 {
			flip = 1
		}
		c := cell.New(seq, int(src%8), int(dst%8), 8, 64)
		d := c.Clone()
		d.Words[int(wordIdx)%8] ^= cell.Word(flip)
		if d.Words[int(wordIdx)%8] == c.Words[int(wordIdx)%8] {
			return // flip was a no-op
		}
		if c.Checksum() == d.Checksum() {
			t.Fatalf("checksum collision: seq=%d word=%d flip=%x", seq, wordIdx%8, flip)
		}
	})
}
