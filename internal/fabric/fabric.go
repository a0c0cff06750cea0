// Package fabric composes pipelined-memory shared-buffer switches into a
// multistage network — the use the paper's introduction claims for its
// building block: "they can be the building blocks for larger,
// multi-stage switches and networks; our discussion applies equally well
// to both uses" (§2).
//
// The topology is a k-ary butterfly: N = k^s terminals, s stages of N/k
// switches of radix k, destination-digit routing. Each node is a full
// cycle-accurate core.Switch; the inter-stage links carry one word per
// cycle with one wire register of delay, and two properties of the
// single-switch design compose across the fabric:
//
//   - cut-through chains: a cell's head can be entering stage t+1's
//     buffer while its tail is still crossing stage t (implemented with
//     the core transmit hook — the downstream arrival wave starts one
//     wire-register after the upstream read wave);
//   - credit-based flow control ([Kate94]/[KVES95]) on every inter-stage
//     link bounds each switch's buffer occupancy and, under complete
//     sharing, makes those links lossless (an admission policy may still
//     refuse a cell that holds a credit; terminal injection holds none).
//
// The package exists for the E2 counterpoint: the same multistage
// topology that collapses to ≈0.4 saturation with input-FIFO wormhole
// nodes (internal/wormhole) sustains far higher throughput when the nodes
// are shared-buffer switches.
//
// The net itself — cycle loop, terminal injection, accounting, the
// traffic-driven Run — is internal/fabric/engine's, which ticks all stages
// in parallel across a worker shard pool while staying bit-identical to a
// sequential sweep; this package contributes the butterfly wiring and
// digit routing, and nothing else.
package fabric

import (
	"fmt"

	"pipemem/internal/fabric/engine"
)

// Config parameterizes the fabric.
type Config struct {
	// Terminals is N; it must be a power of Radix ≥ Radix².
	Terminals int
	// Radix is k, the port count of each switch node.
	Radix int
	// WordBits is the link width.
	WordBits int
	// SwitchCells is each node's buffer capacity in cells.
	SwitchCells int
	// Credits is the per-inter-stage-link credit allowance (0 disables
	// flow control; switches then drop on buffer exhaustion).
	Credits int
	// CutThrough enables automatic cut-through in every node.
	CutThrough bool
	// Policy optionally names a bufmgr admission policy spec
	// (name:key=val) installed on every node; empty keeps the default
	// complete sharing. Malformed specs fail Validate and New with an
	// error wrapping bufmgr.ErrBadConfig.
	Policy string
	// Workers is the engine shard count (0 = GOMAXPROCS, 1 = sequential
	// reference). Results are bit-identical across worker counts.
	Workers int
}

// engineConfig validates the butterfly half of the configuration —
// Terminals is Radix^s, s ≥ 2 — and returns the engine's, which Validate
// and New hand on for the checks every net shares.
func (c Config) engineConfig() (engine.Config, error) {
	if c.Radix < 2 {
		return engine.Config{}, fmt.Errorf("fabric: radix %d", c.Radix)
	}
	n, s := 1, 0
	for n <= c.Terminals/c.Radix { // n·Radix ≤ Terminals: cannot overflow
		n *= c.Radix
		s++
	}
	if n != c.Terminals || s < 2 {
		return engine.Config{}, fmt.Errorf("fabric: terminals %d is not radix^s with s ≥ 2", c.Terminals)
	}
	return engine.Config{
		Topo:     topology{n: n, k: c.Radix, stages: s},
		WordBits: c.WordBits, SwitchCells: c.SwitchCells, Credits: c.Credits,
		CutThrough: c.CutThrough, Policy: c.Policy, Workers: c.Workers,
	}, nil
}

// Validate reports whether the configuration is buildable.
func (c Config) Validate() error {
	ec, err := c.engineConfig()
	if err != nil {
		return err
	}
	return ec.Validate()
}

// Net is the multistage fabric: the engine's net, wired as a butterfly.
// Cells are offered with Inject under sequence numbers that start at 1 and
// only increase (Step reports any other); Run and Drive number them so.
type Net = engine.Engine

// New builds the fabric. A Net with Workers > 1 owns goroutines; Close it
// when done.
func New(cfg Config) (*Net, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	return engine.New(ec)
}

// topology is the k-ary butterfly wiring, in the engine's vocabulary.
type topology struct {
	n, k, stages int
}

func (t topology) Stages() int     { return t.stages }
func (t topology) NodesAt(int) int { return t.n / t.k }
func (t topology) Radix() int      { return t.k }
func (t topology) Terminals() int  { return t.n }

// pow returns k^b.
func (t topology) pow(b int) int {
	v := 1
	for i := 0; i < b; i++ {
		v *= t.k
	}
	return v
}

// switchOf returns the switch and port that line l connects to at stage
// st (the switch groups the k lines differing only in digit s-1-st).
func (t topology) switchOf(st, l int) (sw, port int) {
	b := t.stages - 1 - st
	p := t.pow(b)
	lo := l % p
	hi := l / (p * t.k)
	return hi*p + lo, (l / p) % t.k
}

// lineOf is the inverse of switchOf: the line of (stage st, switch sw,
// port).
func (t topology) lineOf(st, sw, port int) int {
	b := t.stages - 1 - st
	p := t.pow(b)
	lo := sw % p
	hi := sw / p
	return hi*p*t.k + port*p + lo
}

// Downstream follows stage st's output line to the next stage's input.
func (t topology) Downstream(st, node, out int) (int, int) {
	return t.switchOf(st+1, t.lineOf(st, node, out))
}

// RouteDst is destination-digit routing: stage st examines digit s-1-st
// (base k) of dst.
func (t topology) RouteDst(st, dst int) int { return dst / t.pow(t.stages-1-st) % t.k }

func (t topology) InjectPoint(term int) (int, int) { return t.switchOf(0, term) }

func (t topology) EjectTerminal(node, out int) int {
	return t.lineOf(t.stages-1, node, out)
}
