package fabric

import (
	"runtime"
	"testing"

	"pipemem/internal/core"
)

// TestBuildFootprint pins what building a switch and a fabric allocates
// (runtime.MemStats.TotalAlloc around New, the least of three builds). A
// switch allocates its descriptor pool at one node per address and its
// latency histogram at no buckets, and grows both only as far as a run
// uses them, so a fabric's interior nodes, which never record a latency,
// never allocate one. Measured on linux/amd64: 11,616, 58,752 and 198,648
// bytes; sizing both for their worst case read 56,064, 180,448 and
// 1,040,888.
func TestBuildFootprint(t *testing.T) {
	sw := func(cells int) func() error {
		return func() error {
			_, err := core.New(core.Config{Ports: 8, WordBits: 16, Cells: cells, CutThrough: true})
			return err
		}
	}
	for _, tc := range []struct {
		name  string
		build func() error
		limit uint64
	}{
		{"core 8x8/32", sw(32), 14 << 10},
		{"core 8x8/256", sw(256), 72 << 10},
		{"fabric 64 terminals radix 8", func() error {
			_, err := New(Config{Terminals: 64, Radix: 8, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true, Workers: 1})
			return err
		}, 256 << 10},
	} {
		least := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if err := tc.build(); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if least > tc.limit {
			t.Errorf("%s: New allocates %d bytes, over the pinned %d", tc.name, least, tc.limit)
		}
	}
}
