package traffic

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// oracleSeeds pairs each owned generator with a math/rand/v2 PCG on the same
// seed; the standard library's is the oracle throughout.
func oracleSeeds(n int) [][2]uint64 {
	r := rand.New(rand.NewPCG(2024, 16))
	seeds := [][2]uint64{{0, 0}, {1, 0xbf58476d1ce4e5b9}, {^uint64(0), ^uint64(0)}}
	for len(seeds) < n {
		seeds = append(seeds, [2]uint64{r.Uint64(), r.Uint64()})
	}
	return seeds
}

// sameState compares the owned generator with the oracle through the one
// window rand.PCG offers on its state, MarshalBinary.
func sameState(t *testing.T, when string, own *pcg, oracle *rand.PCG) {
	t.Helper()
	want, err := oracle.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if got := own.MarshalBinary(); !bytes.Equal(got, want) {
		t.Fatalf("%s: state %x, oracle %x", when, got, want)
	}
}

// The owned generator is math/rand/v2's PCG: outputs, encoding both ways,
// and what rand.Rand derives from it.
func TestPCGMatchesStdlib(t *testing.T) {
	for _, seed := range oracleSeeds(50) {
		own, oracle := &pcg{seed[0], seed[1]}, rand.NewPCG(seed[0], seed[1])
		sameState(t, "seeded", own, oracle)
		for i := 0; i < 1000; i++ {
			if got, want := own.Uint64(), oracle.Uint64(); got != want {
				t.Fatalf("seed %x output %d: %#x, oracle %#x", seed, i, got, want)
			}
		}
		sameState(t, "after 1000 outputs", own, oracle)

		// Each decodes the other's bytes and carries on in step.
		ob, _ := oracle.MarshalBinary()
		var own2 pcg
		if err := own2.UnmarshalBinary(ob); err != nil {
			t.Fatal(err)
		}
		var oracle2 rand.PCG
		if err := oracle2.UnmarshalBinary(own.MarshalBinary()); err != nil {
			t.Fatal(err)
		}
		ro, rs := rand.New(&own2), rand.New(&oracle2)
		for i := 0; i < 200; i++ {
			if got, want := ro.Float64(), rs.Float64(); got != want {
				t.Fatalf("seed %x Float64 %d: %v, oracle %v", seed, i, got, want)
			}
			n := 2 + i%9
			if got, want := ro.IntN(n), rs.IntN(n); got != want {
				t.Fatalf("seed %x IntN(%d) %d: %d, oracle %d", seed, n, i, got, want)
			}
		}
		sameState(t, "after rand.Rand draws", &own2, &oracle2)
	}
	for _, bad := range [][]byte{nil, []byte("pcg:"), []byte("xyz:0123456789abcdef"), make([]byte, 21)} {
		var p pcg
		if p.UnmarshalBinary(bad) == nil {
			t.Errorf("UnmarshalBinary accepted %q", bad)
		}
	}
}

// firstBelow is the serial scan over Float64's bits — the low 53 of each
// output, so the oracle here is written against rand.PCG with the shift pair
// rand.Rand.Float64 itself uses — whatever the run length or threshold, and
// it leaves the generator exactly where the scan would.
func TestFirstBelowMatchesSerialScan(t *testing.T) {
	thresholds := []uint64{0, 1 << 40, 1 << 50, 1 << 53}
	runs := []int{1, 3, 8, 9, 64, 5000}
	for _, seed := range oracleSeeds(50) {
		own, oracle := &pcg{seed[0], seed[1]}, rand.NewPCG(seed[0], seed[1])
		for _, thr := range thresholds {
			for _, n := range runs {
				want := n
				for i := 0; i < n; i++ {
					if oracle.Uint64()<<11>>11 < thr {
						want = i
						break
					}
				}
				if got := own.firstBelow(thr, n); got != want {
					t.Fatalf("seed %x thr %#x n %d: first hit at %d, serial scan %d", seed, thr, n, got, want)
				}
				sameState(t, "after firstBelow", own, oracle)
			}
		}
	}
}

// jumpBy(n) is n steps, for the lane stride, for State's replay counts and
// across a carry out of the low word.
func TestJumpByMatchesSteps(t *testing.T) {
	for _, seed := range oracleSeeds(10) {
		for _, n := range []uint64{0, 1, 2, 3, 7, 64, 1000, 4099} {
			stepped, jumped := pcg{seed[0], seed[1]}, pcg{seed[0], seed[1]}
			for i := uint64(0); i < n; i++ {
				stepped.Uint64()
			}
			jumped.advance(jumpBy(n))
			if stepped != jumped {
				t.Fatalf("seed %x: jumpBy(%d) reached %x, %d steps %x", seed, n, jumped, n, stepped)
			}
		}
	}
}

// threshold is exact: an integer compare against it decides what
// rng.Float64() < q decides, at the boundary draws and at random ones.
func TestThresholdMatchesFloat64Compare(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 7))
	qs := []float64{0, 1, 0.5, 1.0 / 3, 0.05 / (128*0.95 + 0.05), 1e-300, 0x1p-53, 0x1p-54, 1 - 0x1p-53, -0.25, 1.5}
	for len(qs) < 2000 {
		qs = append(qs, r.Float64(), r.Float64()*r.Float64()*r.Float64())
	}
	for _, q := range qs {
		thr := threshold(q)
		draws := []uint64{0, 1, draw53, thr, thr - 1, thr + 1}
		for i := 0; i < 8; i++ {
			draws = append(draws, r.Uint64())
		}
		for _, u := range draws {
			u &= draw53
			if got, want := u < thr, float64(u)/(1<<53) < q; got != want {
				t.Fatalf("q=%v (threshold %#x) draw %#x: integer compare %v, Float64 compare %v", q, thr, u, got, want)
			}
		}
	}
	if nan := threshold(math.NaN()); nan != 0 {
		t.Errorf("threshold(NaN) = %#x, want 0: rng.Float64() < NaN never holds", nan)
	}
}
