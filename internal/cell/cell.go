// Package cell defines the data units that travel through the switch
// models in this repository: words (the quantity transferred on a link in
// one clock cycle), cells (fixed-size packets, an integer number of words,
// as required by the pipelined-memory organization of §3.5 of the paper),
// and flits (the flow-control units of the wormhole models).
//
// The paper's switches move one w-bit word per link per cycle; cells are
// exactly K words long where K is the number of pipeline stages (2n for an
// n×n switch), or n words in the half-quantum organization. All payloads
// here are carried in uint64 words; an effective width w ≤ 64 bits is
// enforced by masking.
package cell

import (
	"fmt"
	"math/rand/v2"
)

// Word is the unit transferred on a link in one clock cycle. The effective
// width of a word is configuration-dependent (w bits, w ≤ 64); unused high
// bits must be zero.
type Word uint64

// Mask returns the Word truncated to width bits. A width of 64 (or more)
// returns the word unchanged.
func (w Word) Mask(width int) Word {
	if width >= 64 {
		return w
	}
	return w & (1<<uint(width) - 1)
}

// Cell is a fixed-size packet: the unit that is buffered, switched, and
// whose size must be an integer multiple of the basic quantum (§3.5).
type Cell struct {
	// Seq is a unique sequence number assigned by the source, used by
	// integrity checks to match departures against arrivals.
	Seq uint64
	// Src and Dst are incoming and outgoing link indices.
	Src, Dst int
	// VC is the virtual channel the cell travels on (0 when VCs are not
	// in use). Buffer management may keep one logical queue per
	// (output, VC) pair — the [KVES95] organization.
	VC int
	// Copies lists additional outgoing links beyond Dst for multicast
	// cells (nil for unicast). A shared buffer multicasts for free at
	// the descriptor level: the payload is stored once and a descriptor
	// is queued per destination, with the address released when the last
	// copy has been read — the economy [Turn93]-style switches build on.
	Copies []int
	// Enqueue is the cycle (or slot) at which the cell's first word
	// arrived at the switch; simulators use it for latency accounting.
	Enqueue int64
	// Words is the payload, one entry per clock cycle on the link.
	Words []Word
	// Tag is a handle for the driver's own bookkeeping (the multistage
	// fabric keeps its flight record's index here). Switches neither read
	// it nor copy it into what they build; Equal ignores it, Clone copies
	// it.
	Tag int32
}

// Len returns the cell length in words.
func (c *Cell) Len() int { return len(c.Words) }

// Clone returns a deep copy of the cell.
func (c *Cell) Clone() *Cell {
	d := *c
	d.Words = append([]Word(nil), c.Words...)
	if c.Copies != nil {
		d.Copies = append([]int(nil), c.Copies...)
	}
	return &d
}

// Checksum folds the cell's payload and identity into a single word. It is
// order-sensitive, so any reordering, duplication or corruption of words
// changes the sum. It is used by the RTL integrity tests.
func (c *Cell) Checksum() uint64 {
	const prime = 0x100000001b3 // FNV-64 prime
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h ^= v
		h *= prime
	}
	mix(c.Seq)
	mix(uint64(c.Src)<<32 | uint64(uint32(c.Dst)))
	for _, w := range c.Words {
		mix(uint64(w))
	}
	return h
}

// Equal reports whether two cells carry the same identity and payload.
// Enqueue timestamps and Tag are not compared: they are observer metadata.
func (c *Cell) Equal(d *Cell) bool {
	if c.Seq != d.Seq || c.Src != d.Src || c.Dst != d.Dst || c.VC != d.VC || len(c.Words) != len(d.Words) {
		return false
	}
	for i := range c.Words {
		if c.Words[i] != d.Words[i] {
			return false
		}
	}
	return true
}

// String implements fmt.Stringer for debugging traces.
func (c *Cell) String() string {
	return fmt.Sprintf("cell{seq=%d %d→%d len=%d t=%d}", c.Seq, c.Src, c.Dst, len(c.Words), c.Enqueue)
}

// New returns a cell of the given size with a payload derived
// deterministically from (seq, src, dst), masked to width bits. The first
// word encodes the destination in its low bits, mimicking a routing header.
func New(seq uint64, src, dst, words, width int) *Cell {
	c := &Cell{}
	Fill(c, seq, src, dst, words, width)
	return c
}

// NewRandom returns a cell with uniformly random payload words from rng,
// masked to width bits. Word 0 still encodes the destination header.
func NewRandom(rng *rand.Rand, seq uint64, src, dst, words, width int) *Cell {
	c := &Cell{Seq: seq, Src: src, Dst: dst, Words: make([]Word, words)}
	for i := range c.Words {
		c.Words[i] = Word(rng.Uint64()).Mask(width)
	}
	c.Words[0] = Word(uint64(dst)).Mask(width)
	return c
}
