package traffic

import (
	"encoding/binary"
	"errors"
	"math"
	"math/bits"
)

// pcg is math/rand/v2's PCG-DXSM generator — the same 128-bit LCG, the same
// output permutation, the same MarshalBinary bytes — with its state where a
// CellStream can reach it: the stream draws one start per free link per
// cycle, and with the recurrence inline a run of those draws is a tight loop
// (firstBelow) instead of a rand.Rand → Source interface call each, and a
// generator that stood at the start of a gap can be moved forward by a
// counted number of draws (advance). rand.PCG stays the oracle in the tests,
// and *pcg is a rand.Source, so rand.New(&p) keeps IntN bit-compatible.
type pcg struct{ hi, lo uint64 }

const (
	pcgMulHi    = 2549297995355413924
	pcgMulLo    = 4865540595714422341
	pcgIncHi    = 6364136223846793005
	pcgIncLo    = 1442695040888963407
	pcgCheapMul = 0xda942042e4dd58b5

	// draw53 keeps the low 53 bits of an output, the bits rand.Rand.Float64
	// keeps (u<<11>>11).
	draw53 = 1<<53 - 1
)

// lcg is one step of a 128-bit LCG: state·m + a (mod 2^128).
func lcg(hi, lo, mHi, mLo, aHi, aLo uint64) (uint64, uint64) {
	h, l := bits.Mul64(lo, mLo)
	h += hi*mLo + lo*mHi
	l, c := bits.Add64(l, aLo, 0)
	h, _ = bits.Add64(h, aHi, c)
	return h, l
}

// dxsm is the output permutation of a state.
func dxsm(hi, lo uint64) uint64 {
	hi ^= hi >> 32
	hi *= pcgCheapMul
	hi ^= hi >> 48
	return hi * (lo | 1)
}

// Uint64 implements rand.Source: advance, then output the new state.
func (p *pcg) Uint64() uint64 {
	p.hi, p.lo = lcg(p.hi, p.lo, pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo)
	return dxsm(p.hi, p.lo)
}

// threshold turns a draw against probability q into an integer compare:
// rng.Float64() < q ⇔ u&draw53 < threshold(q), exactly. Float64 is that
// integer over 2^53 with no rounding, q·2^53 is exact for q in (0,1), and an
// integer is below a positive real iff it is below its ceiling. q ≤ 0 and
// NaN never succeed, q ≥ 1 always does.
func threshold(q float64) uint64 {
	switch {
	case !(q > 0):
		return 0
	case q >= 1:
		return 1 << 53
	}
	return uint64(math.Ceil(q * (1 << 53)))
}

// pcgJump is the affine map x → x·m + a (mod 2^128) of a number of steps.
type pcgJump struct{ mHi, mLo, aHi, aLo uint64 }

// then returns the map "j, then k".
func (j pcgJump) then(k pcgJump) pcgJump {
	mHi, mLo := lcg(j.mHi, j.mLo, k.mHi, k.mLo, 0, 0)
	aHi, aLo := lcg(j.aHi, j.aLo, k.mHi, k.mLo, k.aHi, k.aLo)
	return pcgJump{mHi, mLo, aHi, aLo}
}

// jumpBy returns the map of n steps, by square and multiply.
func jumpBy(n uint64) pcgJump {
	acc := pcgJump{mLo: 1}
	for sq := (pcgJump{pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo}); n > 0; n >>= 1 {
		if n&1 != 0 {
			acc = acc.then(sq)
		}
		sq = sq.then(sq)
	}
	return acc
}

// advance applies j to the state.
func (p *pcg) advance(j pcgJump) {
	p.hi, p.lo = lcg(p.hi, p.lo, j.mHi, j.mLo, j.aHi, j.aLo)
}

// laneMin is the shortest run firstBelow splits into lanes; below it the
// serial loop is as fast.
const laneMin = 8

// laneJump moves a lane from one of its draws to its next: two steps.
var laneJump = jumpBy(2)

// firstBelow consumes up to n draws and returns the index of the first whose
// low 53 bits are below thr, leaving the generator just past that draw; it
// returns n, with all n consumed, when none is. It is the serial scan
//
//	for i := 0; i < n; i++ { if p.Uint64()&draw53 < thr { return i } }; return n
//
// and a long run is that scan in two interleaved lanes — one holds the
// states of the even draws, one of the odd, each jumping two steps at a
// time — so that two multiply chains overlap (two lanes measured as fast
// as four: the loop is bound by multiplier throughput from there on, and
// four lanes spill). A pair with a hit in it is left to the serial loop,
// which starts from the state before the pair.
func (p *pcg) firstBelow(thr uint64, n int) int {
	i := 0
	if n >= laneMin {
		// The lanes are plain words, not pcg values, so that they stay in
		// registers across the loop.
		j := laneJump
		hi, lo := p.hi, p.lo
		h0, l0 := lcg(hi, lo, pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo)
		h1, l1 := lcg(h0, l0, pcgMulHi, pcgMulLo, pcgIncHi, pcgIncLo)
		for ; i+2 <= n; i += 2 {
			if min(dxsm(h0, l0)&draw53, dxsm(h1, l1)&draw53) < thr {
				break
			}
			hi, lo = h1, l1
			h0, l0 = lcg(h0, l0, j.mHi, j.mLo, j.aHi, j.aLo)
			h1, l1 = lcg(h1, l1, j.mHi, j.mLo, j.aHi, j.aLo)
		}
		p.hi, p.lo = hi, lo
	}
	for ; i < n; i++ {
		if p.Uint64()&draw53 < thr {
			return i
		}
	}
	return n
}

// MarshalBinary encodes the state as rand.PCG does: "pcg:", then hi and lo
// big-endian.
func (p *pcg) MarshalBinary() []byte {
	b := make([]byte, 0, 20)
	b = append(b, "pcg:"...)
	b = binary.BigEndian.AppendUint64(b, p.hi)
	return binary.BigEndian.AppendUint64(b, p.lo)
}

// UnmarshalBinary accepts what MarshalBinary and rand.PCG.MarshalBinary
// produce.
func (p *pcg) UnmarshalBinary(data []byte) error {
	if len(data) != 20 || string(data[:4]) != "pcg:" {
		return errors.New("invalid PCG encoding")
	}
	p.hi = binary.BigEndian.Uint64(data[4:])
	p.lo = binary.BigEndian.Uint64(data[12:])
	return nil
}
