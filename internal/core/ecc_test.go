package core

import (
	mathbits "math/bits"
	"math/rand/v2"
	"testing"

	"pipemem/internal/cell"
)

// The bit-serial SEC-DED construction the mask-driven kernel in ecc.go
// replaced, kept as its oracle: instead of materializing the codeword, both
// encode and decode fold each 1-bit's position into a running XOR — for a
// codeword with exactly the check bits chosen below, the XOR of the
// positions of all 1-bits is zero, and after a single bit error at position
// p it is exactly p.

// refECCSpread walks the width data bits of w through codeword positions
// 3, 5, 6, 7, 9, … (skipping the powers of two) and returns the XOR of the
// positions of its 1-bits and their count.
func refECCSpread(w cell.Word, width int) (posXor uint, ones int) {
	next := uint(3)
	for b := 0; b < width; b++ {
		pos := next
		next++
		for next&(next-1) == 0 {
			next++
		}
		if w&(1<<uint(b)) != 0 {
			posXor ^= pos
			ones++
		}
	}
	return posXor, ones
}

func refECCEncode(w cell.Word, width int) uint8 {
	r := eccCheckBits(width)
	posXor, ones := refECCSpread(w, width)
	check := uint8(posXor) & (1<<uint(r) - 1)
	parity := uint(ones)
	for i := 0; i < r; i++ {
		parity += uint(check>>uint(i)) & 1
	}
	return check | uint8(parity&1)<<uint(r)
}

func refECCDataBit(pos uint, width int) (int, bool) {
	p := uint(3)
	for b := 0; b < width; b++ {
		if p == pos {
			return b, true
		}
		p++
		for p&(p-1) == 0 {
			p++
		}
	}
	return 0, false
}

func refECCDecode(w cell.Word, check uint8, width int) (cell.Word, eccStatus) {
	r := eccCheckBits(width)
	syndrome := uint((check ^ refECCEncode(w, width)) & (1<<uint(r) - 1))
	ones := mathbits.OnesCount64(uint64(w)) + mathbits.OnesCount8(check)
	parityErr := ones&1 != 0
	switch {
	case syndrome == 0 && !parityErr:
		return w, eccClean
	case syndrome == 0 && parityErr:
		return w, eccCorrected
	case parityErr:
		if syndrome&(syndrome-1) == 0 {
			return w, eccCorrected
		}
		if bit, ok := refECCDataBit(syndrome, width); ok {
			return w ^ 1<<uint(bit), eccCorrected
		}
		return w, eccUncorrectable
	default:
		return w, eccUncorrectable
	}
}

// checkECCAgainstOracle compares the kernel with the oracle on one stored
// pair: the check bits it would write for w, and what it makes of reading
// back (w ^ dataFlip, check ^ checkFlip).
func checkECCAgainstOracle(t *testing.T, e *eccCode, width int, w, dataFlip cell.Word, checkFlip uint8) {
	t.Helper()
	chk := e.encode(w)
	if want := refECCEncode(w, width); chk != want {
		t.Fatalf("width %d word %#x: encode %#x, oracle %#x", width, w, chk, want)
	}
	got, st := e.decode(w^dataFlip, chk^checkFlip)
	want, wantSt := refECCDecode(w^dataFlip, chk^checkFlip, width)
	if got != want || st != wantSt {
		t.Fatalf("width %d word %#x flips %#x/%#x: decode (%#x, %d), oracle (%#x, %d)",
			width, w, dataFlip, checkFlip, got, st, want, wantSt)
	}
}

// TestECCKernelMatchesOracle: for every width up to 16, the kernel agrees
// with the oracle on the clean pair and on every single and double flip of
// the stored bits (data, check and parity alike). Words are exhaustive up
// to 8 bits and sampled above — the code is linear, so what a flip pattern
// does never depends on the word it lands on.
func TestECCKernelMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewPCG(11, 12))
	for width := 1; width <= 16; width++ {
		e := newECC(width)
		stored := width + e.r + 1 // bit i < width is data, the rest check
		flip := func(i int) (cell.Word, uint8) {
			if i < width {
				return 1 << uint(i), 0
			}
			return 0, 1 << uint(i-width)
		}
		for i := 0; i < 256; i++ {
			w := cell.Word(i)
			if width > 8 {
				w = cell.Word(rng.Uint64()).Mask(width)
			} else if i >= 1<<uint(width) {
				break
			}
			checkECCAgainstOracle(t, e, width, w, 0, 0)
			for a := 0; a < stored; a++ {
				da, ca := flip(a)
				checkECCAgainstOracle(t, e, width, w, da, ca)
				for b := a + 1; b < stored; b++ {
					db, cb := flip(b)
					checkECCAgainstOracle(t, e, width, w, da^db, ca^cb)
				}
			}
		}
	}
}

// FuzzECCKernel extends the oracle comparison to every width and to
// arbitrary flip patterns, out-of-width word bits included.
func FuzzECCKernel(f *testing.F) {
	f.Add(uint8(16), uint64(0xbeef), uint64(0), uint8(0))
	f.Add(uint8(64), ^uint64(0), uint64(1)<<63, uint8(0x80))
	f.Add(uint8(57), uint64(0x0123456789abcdef), uint64(3), uint8(0))
	f.Add(uint8(1), uint64(1), uint64(1), uint8(7))
	f.Add(uint8(33), uint64(1)<<40, uint64(0), uint8(0x41))
	f.Fuzz(func(t *testing.T, width uint8, w, dataFlip uint64, checkFlip uint8) {
		wd := int(width)%64 + 1
		checkECCAgainstOracle(t, newECC(wd), wd, cell.Word(w), cell.Word(dataFlip), checkFlip)
	})
}

// TestECCCleanRoundTrip: an unperturbed (word, check) pair decodes clean
// for every supported width.
func TestECCCleanRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, width := range []int{1, 4, 8, 11, 16, 26, 32, 57, 64} {
		e := newECC(width)
		for i := 0; i < 200; i++ {
			w := cell.Word(rng.Uint64()).Mask(width)
			got, st := e.decode(w, e.encode(w))
			if st != eccClean || got != w {
				t.Fatalf("width %d word %#x: status %d, got %#x", width, w, st, got)
			}
		}
	}
}

// TestECCSingleBitCorrection: every single-bit data error is corrected back
// to the original word; every single-bit check error leaves data intact.
func TestECCSingleBitCorrection(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 4))
	for _, width := range []int{1, 8, 16, 33, 64} {
		e := newECC(width)
		r := e.r
		for i := 0; i < 100; i++ {
			w := cell.Word(rng.Uint64()).Mask(width)
			chk := e.encode(w)
			for b := 0; b < width; b++ {
				got, st := e.decode(w^1<<uint(b), chk)
				if st != eccCorrected || got != w {
					t.Fatalf("width %d: data bit %d flip not corrected (status %d, got %#x, want %#x)",
						width, b, st, got, w)
				}
			}
			for b := 0; b <= r; b++ { // check bits and the parity bit
				got, st := e.decode(w, chk^1<<uint(b))
				if st != eccCorrected || got != w {
					t.Fatalf("width %d: check bit %d flip mishandled (status %d)", width, b, st)
				}
			}
		}
	}
}

// TestECCDoubleBitDetection: any two-bit data error is flagged
// uncorrectable — never silently delivered, never miscorrected.
func TestECCDoubleBitDetection(t *testing.T) {
	rng := rand.New(rand.NewPCG(5, 6))
	for _, width := range []int{8, 16, 64} {
		e := newECC(width)
		for i := 0; i < 50; i++ {
			w := cell.Word(rng.Uint64()).Mask(width)
			chk := e.encode(w)
			for b1 := 0; b1 < width; b1++ {
				b2 := (b1 + 1 + rng.IntN(width-1)) % width
				if b1 == b2 {
					continue
				}
				_, st := e.decode(w^1<<uint(b1)^1<<uint(b2), chk)
				if st != eccUncorrectable {
					t.Fatalf("width %d: double flip (%d,%d) not detected (status %d)", width, b1, b2, st)
				}
			}
		}
	}
}

// TestECCCheckBitCount pins the check-bit arithmetic: 16-bit words need 5+1
// bits, 64-bit words 7+1 (the §5-style area overhead quoted in DESIGN.md).
func TestECCCheckBitCount(t *testing.T) {
	for _, tc := range []struct{ width, r int }{
		{1, 2}, {4, 3}, {8, 4}, {11, 4}, {16, 5}, {26, 5}, {57, 6}, {64, 7},
	} {
		if got := eccCheckBits(tc.width); got != tc.r {
			t.Errorf("eccCheckBits(%d) = %d, want %d", tc.width, got, tc.r)
		}
	}
}
