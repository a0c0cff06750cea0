// Package clos composes pipelined-memory switches into a three-stage
// Clos network — alongside internal/fabric's butterfly, the other classic
// way §2's "building blocks for larger, multi-stage switches" are
// assembled.
//
// The symmetric C(n, n, n) instance is built here: n² terminals, n
// ingress switches (n×n), up to n middle switches (n×n), n egress
// switches (n×n). The ingress stage's choice of middle switch is the
// Clos routing freedom; Config.Middles restricts how many middles are
// populated, exposing the classic sizing trade — the network is
// rearrangeably non-blocking with all n middles and degrades gracefully
// below that.
//
// As in internal/fabric, each node is a full cycle-accurate core.Switch,
// cut-through chains across stages via the transmit hook, and inter-stage
// links run credit-based flow control. The net itself is
// internal/fabric/engine's; this package contributes the Clos wiring, and
// leaves the ingress stage's output free so that the engine deals the
// populated middles out round-robin per ingress switch — the Clos routing
// freedom, exercised fairly.
package clos

import (
	"fmt"

	"pipemem/internal/fabric/engine"
)

// Config parameterizes the Clos network.
type Config struct {
	// Radix is n: switch port count, ingress/egress switch count, and
	// the maximum middle count. Terminals = n².
	Radix int
	// Middles is m ≤ n, the populated middle switches (0 means n).
	Middles int
	// WordBits is the link width.
	WordBits int
	// SwitchCells is each node's buffer capacity in cells.
	SwitchCells int
	// Credits is the per-inter-stage-link credit allowance (0 disables).
	Credits int
	// CutThrough enables automatic cut-through in every node.
	CutThrough bool
	// Policy optionally names a bufmgr admission policy spec
	// (name:key=val) installed on every node. Malformed specs fail
	// Validate and New with an error wrapping bufmgr.ErrBadConfig.
	Policy string
	// Workers is the engine shard count (0 = GOMAXPROCS, 1 = sequential
	// reference). Results are bit-identical across worker counts.
	Workers int
}

// engineConfig validates the Clos half of the configuration and returns the
// engine's, which Validate and New hand on for the checks every net shares.
func (c Config) engineConfig() (engine.Config, error) {
	if c.Radix < 2 {
		return engine.Config{}, fmt.Errorf("clos: radix %d", c.Radix)
	}
	if c.Middles < 0 || c.Middles > c.Radix {
		return engine.Config{}, fmt.Errorf("clos: %d middles for radix %d", c.Middles, c.Radix)
	}
	t := topology{n: c.Radix, m: c.Middles}
	if t.m == 0 {
		t.m = t.n
	}
	return engine.Config{
		Topo: t, WordBits: c.WordBits, SwitchCells: c.SwitchCells, Credits: c.Credits,
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

// Net is the three-stage Clos network: the engine's net, wired as a Clos.
// Terminal t is port t mod n of ingress switch t / n.
type Net = engine.Engine

// New builds the network. A Net with Workers > 1 owns goroutines; Close
// it when done.
func New(cfg Config) (*Net, error) {
	ec, err := cfg.engineConfig()
	if err != nil {
		return nil, err
	}
	return engine.New(ec)
}

// topology is the C(n, n, n) wiring in the engine's vocabulary: stage 0
// output j uplinks to middle j's port i (the ingress index); middle j's
// output e goes to egress e's port j; outputs into unpopulated middles
// (j ≥ m) are unroutable and gated off by the engine.
type topology struct {
	n, m int
}

func (t topology) Stages() int    { return 3 }
func (t topology) Radix() int     { return t.n }
func (t topology) Terminals() int { return t.n * t.n }

func (t topology) NodesAt(stage int) int {
	if stage == 1 {
		return t.m
	}
	return t.n
}

func (t topology) Downstream(stage, sw, out int) (int, int) {
	if stage == 0 && out >= t.m {
		return -1, -1
	}
	return out, sw
}

// RouteDst: the ingress stage's output — the middle choice — is free, the
// middle routes on the egress-switch digit, the egress on the terminal's
// port digit.
func (t topology) RouteDst(stage, dst int) int {
	switch stage {
	case 0:
		return -1
	case 1:
		return dst / t.n
	}
	return dst % t.n
}

func (t topology) InjectPoint(term int) (int, int) { return term / t.n, term % t.n }

func (t topology) EjectTerminal(esw, out int) int { return esw*t.n + out }
