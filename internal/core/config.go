// Package core implements the paper's primary contribution: a
// cycle-accurate register-transfer-level model of the pipelined memory
// shared buffer switch (§3).
//
// # The model
//
// An n×n switch moves one w-bit word per link per clock cycle. The shared
// buffer consists of K memory stages M0…M(K-1) (K = 2n in the canonical
// configuration), each a single-ported RAM of A words of w bits. A cell
// (fixed-size packet) is exactly K words. Each incoming link has a row of
// K input registers; the arriving cell's word j is latched into register j.
// A single shared row of K output registers serves all outgoing links.
//
// Every operation is a wave (§3.2): a write wave initiated at cycle t
// copies input register s of its link into M_s at cycle t+s, for
// s = 0…K-1; a read wave loads output register s from M_s at cycle t+s,
// and the word is transmitted on the outgoing link at cycle t+s+1. All
// stages of a wave use the same buffer address. Control is generated only
// for stage 0 and shifts right one stage per cycle (§3.3, fig. 5).
//
// At most one wave is initiated per cycle — the staggered-initiation
// restriction of §3.4 — with priority to reads ("normally, higher priority
// is given to the outgoing links"). Cut-through is automatic (§3.3): a
// read wave may be initiated in any cycle at or after the cell's write
// wave, including the same cycle, in which case stage s both writes M_s
// and taps the bus into output register s (a write-through).
//
// Buffer management (free address list, per-output descriptor queues) is
// the orthogonal circuitry of §3.3, modeled with fifo.FreeList and
// fifo.MultiQueue.
package core

import (
	"errors"
	"fmt"

	"pipemem/internal/cell"
)

// ErrBadConfig is the sentinel wrapped by every Config validation error, so
// callers can test errors.Is(err, ErrBadConfig) regardless of which field
// was rejected.
var ErrBadConfig = errors.New("core: invalid configuration")

// Config parameterizes a pipelined memory shared buffer switch.
type Config struct {
	// Ports is n: the number of incoming links, equal to the number of
	// outgoing links.
	Ports int
	// Stages is K, the number of memory stages and the cell size in
	// words. 0 means the canonical 2·Ports. The paper requires the cell
	// size to be an integer multiple of the quantum; this model fixes it
	// at exactly one quantum (multi-quantum packets are sequences of
	// cells).
	Stages int
	// WordBits is w, the link and memory width in bits (1…64).
	WordBits int
	// Cells is A, the buffer capacity in cells (addresses per stage).
	Cells int
	// CutThrough enables automatic cut-through (§3.3). When false the
	// switch is store-and-forward: a cell becomes eligible for reading
	// only after its write wave has completed.
	CutThrough bool
	// NoReadPriority inverts the §3.3 default of serving outgoing links
	// first; used by ablation experiments only.
	NoReadPriority bool
	// VCs is the number of virtual channels per outgoing link. The
	// buffer-management circuitry keeps one logical queue of descriptors
	// per (output, VC) pair and serves a link's VCs round-robin — the
	// organization of the companion paper [KVES95] ("VC-level Flow
	// Control and Shared Buffering in the Telegraphos Switch") that §3.3
	// cites for the management circuits. 0 means 1 (plain per-output
	// queues). The shared data buffer itself is unchanged: VCs are
	// purely a descriptor-queue and flow-control notion, demonstrating
	// §3.3's point that buffer management "is orthogonal to the shared
	// buffer organization".
	VCs int
	// ECC enables per-word SEC-DED protection of the memory banks: each
	// stage stores eccCheckBits(WordBits)+1 extra bit columns per word,
	// single-bit upsets are corrected on the read wave
	// (Counts.ECCCorrected) and multi-bit failures are flagged
	// (Counts.ECCUncorrectable)
	// instead of being silently delivered.
	ECC bool
	// LinkPipeline is the §4.3 optimization for very-high-speed
	// technologies: the long lines carrying the input and output link
	// data are split into this many extra pipeline stages each (with a
	// matching stage inserted into the word lines). All cell data are
	// delayed by an equal number of cycles on the way in and again on
	// the way out, so "the logic of the switch operation remains
	// unaffected" — end-to-end latency grows by exactly 2×LinkPipeline
	// cycles and nothing else changes. 0 disables the option; at most
	// maxLinkPipeline, since the first arrival allocates a delay line that
	// long.
	LinkPipeline int
}

// maxLinkPipeline bounds Config.LinkPipeline: §4.3 splits a long line into
// a few stages, not into hundreds.
const maxLinkPipeline = 64

// wordMask keeps the WordBits low bits of a word: the width of the links,
// the registers and the memory.
func (c Config) wordMask() cell.Word { return (^cell.Word(0)).Mask(c.WordBits) }

// Canonical fills in defaults and returns the effective configuration.
func (c Config) Canonical() Config {
	if c.Stages == 0 {
		c.Stages = 2 * c.Ports
	}
	if c.VCs == 0 {
		c.VCs = 1
	}
	if c.WordBits == 0 {
		c.WordBits = 16
	}
	if c.Cells == 0 {
		c.Cells = 256
	}
	return c
}

// Validate reports whether the configuration is buildable. Every error
// wraps ErrBadConfig.
func (c Config) Validate() error {
	c = c.Canonical()
	if c.Ports < 1 {
		return fmt.Errorf("%w: ports = %d, need ≥ 1", ErrBadConfig, c.Ports)
	}
	if c.Stages < 2 {
		return fmt.Errorf("%w: stages = %d, need ≥ 2", ErrBadConfig, c.Stages)
	}
	if c.WordBits < 1 || c.WordBits > 64 {
		return fmt.Errorf("%w: word width %d out of 1…64", ErrBadConfig, c.WordBits)
	}
	if c.Cells < 1 {
		return fmt.Errorf("%w: capacity %d cells, need ≥ 1", ErrBadConfig, c.Cells)
	}
	if c.Stages < 2*c.Ports {
		// With fewer than 2n stages the one-initiation-per-cycle slot
		// budget (n reads + n writes per K cycles) exceeds capacity and
		// write deadlines can be missed; the paper always uses K = 2n.
		return fmt.Errorf("%w: %d stages < 2×%d ports; write deadlines not schedulable", ErrBadConfig, c.Stages, c.Ports)
	}
	if c.LinkPipeline < 0 || c.LinkPipeline > maxLinkPipeline {
		return fmt.Errorf("%w: link pipelining %d out of 0…%d", ErrBadConfig, c.LinkPipeline, maxLinkPipeline)
	}
	if c.VCs < 1 {
		return fmt.Errorf("%w: %d virtual channels, need ≥ 1", ErrBadConfig, c.VCs)
	}
	return nil
}

// CellWords returns the cell size in words (= Stages).
func (c Config) CellWords() int { return c.Canonical().Stages }

// CapacityBits returns the total buffer capacity in bits
// (Telegraphos III: 16 stages × 256 cells × 16 bits = 64 Kbit… each cell
// is 256 bits and the buffer holds 256 of them).
func (c Config) CapacityBits() int {
	c = c.Canonical()
	return c.Stages * c.Cells * c.WordBits
}
