package traffic

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"reflect"
	"testing"
)

// The stream goldens pin the arrival process itself: every Heads vector of a
// 200k-cycle run and the exported State (RNG bytes, Busy, Sent, burst arrays)
// every 777 cycles, folded into one FNV-1a digest per configuration. The
// digests were computed on the per-cycle implementation that drew one
// rand.Rand Float64 per idle link per cycle; anything that changes a draw,
// the order of two draws, or what a checkpoint taken at any of those cycles
// contains shows up here before it shows up as a moved sim_* row.
const (
	goldenCycles     = 200_000
	goldenStateEvery = 777
	goldenResumeLen  = 5_000
)

type goldenSpec struct {
	name string
	cfg  Config
}

func goldenSpecs() []goldenSpec {
	return []goldenSpec{
		{"bernoulli0.05", Config{Kind: Bernoulli, Load: 0.05}},
		{"bernoulli0.8", Config{Kind: Bernoulli, Load: 0.8}},
		{"bernoulli1.0", Config{Kind: Bernoulli, Load: 1}},
		{"bursty0.05x8", Config{Kind: Bursty, Load: 0.05, BurstLen: 8}},
		{"bursty0.9x3", Config{Kind: Bursty, Load: 0.9, BurstLen: 3}},
		{"hotspot0.9", Config{Kind: Hotspot, Load: 0.9, HotFrac: 0.5, HotPort: 0}},
		{"hotspot0.5", Config{Kind: Hotspot, Load: 0.5, HotFrac: 0.5, HotPort: 1}},
		{"permutation0.7", Config{Kind: Permutation, Load: 0.7}},
		{"saturation", Config{Kind: Saturation}},
	}
}

// streamGolden maps "<spec>/k<cellLen>/n<N>" to the digest of that run at
// seed 42.
var streamGolden = map[string]uint64{
	"bernoulli0.05/k1/n3":   0xa39bafdb997f7a17,
	"bernoulli0.05/k1/n4":   0xf82d201d3bc99bb9,
	"bernoulli0.05/k1/n8":   0x6a8bb12b269049b9,
	"bernoulli0.05/k8/n3":   0x2784100b8fd2af52,
	"bernoulli0.05/k8/n4":   0x7f6eda08db342899,
	"bernoulli0.05/k8/n8":   0xb18cfc04d30dd245,
	"bernoulli0.05/k16/n3":  0xfbf96ab90be90321,
	"bernoulli0.05/k16/n4":  0x7ef566e4286731ba,
	"bernoulli0.05/k16/n8":  0x33d4a861ad7989b2,
	"bernoulli0.8/k1/n3":    0xe7797c358d1b01db,
	"bernoulli0.8/k1/n4":    0x8ce905785fb65355,
	"bernoulli0.8/k1/n8":    0xda362efde6d3446c,
	"bernoulli0.8/k8/n3":    0x76dd9c282281dedc,
	"bernoulli0.8/k8/n4":    0xeaf8f31f9d7ca0cd,
	"bernoulli0.8/k8/n8":    0xfe5dd92b1dde9ca6,
	"bernoulli0.8/k16/n3":   0xf527d0f373c49126,
	"bernoulli0.8/k16/n4":   0x073f5a251eddfdb8,
	"bernoulli0.8/k16/n8":   0xd89861b7d7e5a73c,
	"bernoulli1.0/k1/n3":    0xe8d41291b4880f12,
	"bernoulli1.0/k1/n4":    0x7d40a0da2a4e50e5,
	"bernoulli1.0/k1/n8":    0xc0f2c41cc06e834e,
	"bernoulli1.0/k8/n3":    0xda15ab81bc276da5,
	"bernoulli1.0/k8/n4":    0x255a4d4db3f7c8df,
	"bernoulli1.0/k8/n8":    0x69c4f0788d69d4ed,
	"bernoulli1.0/k16/n3":   0xbed5f7f980dd63ed,
	"bernoulli1.0/k16/n4":   0xd92607d9b88888a7,
	"bernoulli1.0/k16/n8":   0xc7ff2a9ac9cc7619,
	"bursty0.05x8/k1/n3":    0x1d5bad58eadf9a8c,
	"bursty0.05x8/k1/n4":    0x9c4b2b653e49dae3,
	"bursty0.05x8/k1/n8":    0x9185f70089879f44,
	"bursty0.05x8/k8/n3":    0x02ebd75c48a46228,
	"bursty0.05x8/k8/n4":    0xcb494c0958068191,
	"bursty0.05x8/k8/n8":    0x34058ee51b2e37a9,
	"bursty0.05x8/k16/n3":   0x22773d73907b02d6,
	"bursty0.05x8/k16/n4":   0x0b594421d3029ad0,
	"bursty0.05x8/k16/n8":   0x37d8b7048bbe993c,
	"bursty0.9x3/k1/n3":     0x019e84dea465b709,
	"bursty0.9x3/k1/n4":     0x93622cd41f206f53,
	"bursty0.9x3/k1/n8":     0x3d5878e647d55a94,
	"bursty0.9x3/k8/n3":     0x378d83ca86d1a8de,
	"bursty0.9x3/k8/n4":     0x10367a593a3f5153,
	"bursty0.9x3/k8/n8":     0x08cf9c84973f32af,
	"bursty0.9x3/k16/n3":    0x9343b5fa534bece1,
	"bursty0.9x3/k16/n4":    0xc85aaf84932c23a6,
	"bursty0.9x3/k16/n8":    0x1404a40c07f77466,
	"hotspot0.9/k1/n3":      0x3af813c16c5e49a7,
	"hotspot0.9/k1/n4":      0x7204ef9136e76930,
	"hotspot0.9/k1/n8":      0x9c526bad15f1aec0,
	"hotspot0.9/k8/n3":      0x759ac15cfa5e6bed,
	"hotspot0.9/k8/n4":      0xf7a0a0b04f85201e,
	"hotspot0.9/k8/n8":      0x603d3d469a876534,
	"hotspot0.9/k16/n3":     0xdb83b26c6bea4e66,
	"hotspot0.9/k16/n4":     0x504c329baa405a79,
	"hotspot0.9/k16/n8":     0x0dcf57998f2e230b,
	"hotspot0.5/k1/n3":      0xf4eea1d4831de4e7,
	"hotspot0.5/k1/n4":      0x570b142ec3a50714,
	"hotspot0.5/k1/n8":      0xabde9fa6463ee81a,
	"hotspot0.5/k8/n3":      0x432ff1c5dc190553,
	"hotspot0.5/k8/n4":      0xacfac7b1e7dcb817,
	"hotspot0.5/k8/n8":      0x8a24cd766d3eb6f5,
	"hotspot0.5/k16/n3":     0x7fa80d3d598a0006,
	"hotspot0.5/k16/n4":     0x58fbffe654a81019,
	"hotspot0.5/k16/n8":     0x0a15464519b0d5ee,
	"permutation0.7/k1/n3":  0x4a7c9d0e812ff5b0,
	"permutation0.7/k1/n4":  0x9d7879f4d10c93e1,
	"permutation0.7/k1/n8":  0x7a1a3ad7e0b4ce1c,
	"permutation0.7/k8/n3":  0xdc366e24e0f557ae,
	"permutation0.7/k8/n4":  0xc9f4624dd4ea1138,
	"permutation0.7/k8/n8":  0x63b49a3a457b516c,
	"permutation0.7/k16/n3": 0xd64243ee7cee4c9b,
	"permutation0.7/k16/n4": 0x6bd3abacf6a92816,
	"permutation0.7/k16/n8": 0x4cdd02fb0dd82365,
	"saturation/k1/n3":      0x8c13b40c7a666e12,
	"saturation/k1/n4":      0x789af48c06f031ed,
	"saturation/k1/n8":      0xef270e5dfdf79655,
	"saturation/k8/n3":      0x59b4d0f19ae8c79e,
	"saturation/k8/n4":      0x3f8d7a9b0a34e34a,
	"saturation/k8/n8":      0x0a12f33cd418028e,
	"saturation/k16/n3":     0x52a76f4e1254c810,
	"saturation/k16/n4":     0x0361bace1eaf8d56,
	"saturation/k16/n8":     0xc3c0f467d85fed15,
}

func hashInts[T int | int64](h hash.Hash64, buf []byte, v []T) {
	for _, x := range v {
		binary.LittleEndian.PutUint64(buf, uint64(int64(x)))
		h.Write(buf[:8])
	}
}

func hashState(t *testing.T, h hash.Hash64, s *CellStream) *StreamState {
	t.Helper()
	st, err := s.State()
	if err != nil {
		t.Fatal(err)
	}
	var buf [8]byte
	h.Write(st.RNG)
	hashInts(h, buf[:], st.Busy)
	hashInts(h, buf[:], st.Sent)
	hashInts(h, buf[:], st.BurstLeft)
	hashInts(h, buf[:], st.BurstDst)
	return st
}

func TestStreamGolden(t *testing.T) {
	for _, spec := range goldenSpecs() {
		for _, cellLen := range []int{1, 8, 16} {
			for _, n := range []int{3, 4, 8} {
				name := fmt.Sprintf("%s/k%d/n%d", spec.name, cellLen, n)
				cfg := spec.cfg
				cfg.N, cfg.Seed = n, 42
				t.Run(name, func(t *testing.T) {
					t.Parallel()
					s, err := NewCellStream(cfg, cellLen)
					if err != nil {
						t.Fatal(err)
					}
					h := fnv.New64a()
					var buf [8]byte
					dst := make([]int, n)
					// resumed is a stream restored from a State taken along
					// the way; it must track the original for goldenResumeLen
					// cycles, state bytes included.
					var resumed *CellStream
					resumeLeft := 0
					rdst := make([]int, n)
					for c := 0; c < goldenCycles; c++ {
						if c%goldenStateEvery == 0 {
							st := hashState(t, h, s)
							if resumeLeft == 0 && c%(goldenStateEvery*40) == goldenStateEvery*3 {
								if resumed, err = RestoreCellStream(cfg, cellLen, st); err != nil {
									t.Fatalf("cycle %d: restore: %v", c, err)
								}
								resumeLeft = goldenResumeLen
							}
						}
						nh := s.Heads(dst)
						hashInts(h, buf[:], dst)
						got := 0
						for _, d := range dst {
							if d != NoArrival {
								got++
							}
						}
						if got != nh {
							t.Fatalf("cycle %d: Heads returned %d, vector holds %d", c, nh, got)
						}
						if resumeLeft > 0 {
							resumeLeft--
							if rn := resumed.Heads(rdst); rn != nh || !reflect.DeepEqual(rdst, dst) {
								t.Fatalf("cycle %d: restored stream emitted %v, original %v", c, rdst, dst)
							}
							if resumeLeft%997 == 0 {
								a, _ := s.State()
								b, _ := resumed.State()
								if !reflect.DeepEqual(a, b) {
									t.Fatalf("cycle %d: restored stream state %+v, original %+v", c+1, b, a)
								}
							}
						}
					}
					hashState(t, h, s)
					if got, want := h.Sum64(), streamGolden[name]; got != want {
						t.Errorf("digest moved:\n\t%q: %#016x,", name, got)
					}
				})
			}
		}
	}
}
