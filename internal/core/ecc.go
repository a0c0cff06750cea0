package core

import (
	mathbits "math/bits"

	"pipemem/internal/cell"
)

// SEC-DED (single-error-correct, double-error-detect) Hamming code for one
// memory word of up to 64 data bits. The pipelined memory stores the check
// bits alongside each word of each stage (an extra r+1 bit columns per
// bank, §5-style area cost) so that a single-event upset in a bank is
// corrected on the read wave and a multi-bit failure is detected rather
// than silently delivered.
//
// The layout is the textbook one: codeword positions are numbered from 1;
// positions that are powers of two hold check bits, the rest hold the data
// bits in order. Check bit i covers every position whose index has bit i
// set. An overall-parity bit extends the Hamming distance to 4 (SEC-DED).

// eccStatus classifies the outcome of a decode.
type eccStatus uint8

const (
	// eccClean: the word matched its check bits.
	eccClean eccStatus = iota
	// eccCorrected: a single-bit error (in data, check bits, or the
	// overall parity) was corrected.
	eccCorrected
	// eccUncorrectable: a multi-bit error was detected; the returned word
	// is not trustworthy.
	eccUncorrectable
)

// eccCheckBits returns the number of Hamming check bits r for width data
// bits (smallest r with 2^r ≥ width + r + 1). The stored check word is one
// bit wider: the overall parity rides in bit r.
func eccCheckBits(width int) int {
	r := 0
	for (1 << r) < width+r+1 {
		r++
	}
	return r
}

// eccCode is the SEC-DED code for one word width, reduced to parity masks
// built once per switch: check bit i is the parity of the data bits under
// cover[i], so encoding a word is r popcounts instead of a walk over its
// bits, and a syndrome maps back to its data bit through one table load.
// ecc_test.go keeps the bit-serial construction as the oracle.
type eccCode struct {
	r int // Hamming check bits; the overall parity rides in bit r
	// data selects the width data bits (the encoder's parity covers only
	// those; the decoder counts every bit actually read).
	data uint64
	// cover[i] selects the data bits whose codeword position has bit i set.
	cover [7]uint64
	// bitAt maps a codeword position to its data bit, -1 for check-bit
	// positions and positions beyond the codeword.
	bitAt [128]int8
}

// newECC lays out the codeword for width-bit data words (1…64): data bits
// fill positions 3, 5, 6, 7, 9, … in order, skipping the powers of two.
func newECC(width int) *eccCode {
	e := &eccCode{r: eccCheckBits(width), data: ^uint64(0)}
	if width < 64 {
		e.data = uint64(1)<<uint(width) - 1
	}
	for i := range e.bitAt {
		e.bitAt[i] = -1
	}
	pos := uint(3)
	for b := 0; b < width; b++ {
		e.bitAt[pos] = int8(b)
		for i := 0; i < e.r; i++ {
			if pos>>uint(i)&1 != 0 {
				e.cover[i] |= uint64(1) << uint(b)
			}
		}
		pos++
		for pos&(pos-1) == 0 {
			pos++
		}
	}
	return e
}

// encode returns the stored check bits for a data word: bits 0..r-1 are
// the Hamming check bits, bit r is the overall parity of the whole
// codeword (data + check bits).
func (e *eccCode) encode(w cell.Word) uint8 {
	var check uint8
	for i := 0; i < e.r; i++ {
		check |= uint8(mathbits.OnesCount64(uint64(w)&e.cover[i])&1) << uint(i)
	}
	parity := mathbits.OnesCount64(uint64(w)&e.data) + mathbits.OnesCount8(check)
	return check | uint8(parity&1)<<uint(e.r)
}

// decode verifies a (word, check) pair read from a bank. It returns the
// (possibly corrected) word and the decode status.
func (e *eccCode) decode(w cell.Word, check uint8) (cell.Word, eccStatus) {
	syndrome := uint((check ^ e.encode(w)) & (1<<uint(e.r) - 1))
	// The overall parity is checked over the bits actually read (data,
	// check bits, parity bit): the encoder makes that total even.
	ones := mathbits.OnesCount64(uint64(w)) + mathbits.OnesCount8(check)
	parityErr := ones&1 != 0
	switch {
	case syndrome == 0 && !parityErr:
		return w, eccClean
	case syndrome == 0 && parityErr:
		// The overall-parity bit itself flipped; the data is intact.
		return w, eccCorrected
	case parityErr:
		// Odd number of flipped bits with a nonzero syndrome: a single-bit
		// error at codeword position `syndrome`. Power-of-two positions are
		// check bits (data intact); others map back to a data bit.
		if syndrome&(syndrome-1) == 0 {
			return w, eccCorrected
		}
		if bit := e.bitAt[syndrome]; bit >= 0 {
			return w ^ 1<<uint(bit), eccCorrected
		}
		// Position beyond the codeword: cannot be a single-bit error.
		return w, eccUncorrectable
	default:
		// Even number of flipped bits, nonzero syndrome: double error.
		return w, eccUncorrectable
	}
}
