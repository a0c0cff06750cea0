package srv

import (
	"errors"
	"fmt"

	"pipemem/internal/bufmgr"
	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/traffic"
)

// Sentinel errors the HTTP layer maps to status codes. ErrBadSpec marks a
// client mistake (malformed session config, out-of-range step, unknown
// traffic kind) — a 4xx, never a retry; the other sentinels cover the
// session lifecycle.
var (
	// ErrBadSpec marks an invalid session configuration or request
	// parameter (HTTP 400), the serving-layer sibling of core.ErrBadConfig.
	ErrBadSpec = errors.New("srv: bad session spec")
	// ErrNotFound marks an unknown session id (HTTP 404).
	ErrNotFound = errors.New("srv: no such session")
	// ErrBusy marks an operation that needs exclusive stepping on a
	// session that is free-running (HTTP 409); pause it first.
	ErrBusy = errors.New("srv: session is free-running")
	// ErrFinished marks a step/run request against a completed or failed
	// session (HTTP 409).
	ErrFinished = errors.New("srv: session has finished")
	// ErrTooManySessions marks the -max-sessions bound (HTTP 429).
	ErrTooManySessions = errors.New("srv: session limit reached")
	// ErrClosed marks requests arriving after shutdown began (HTTP 503).
	ErrClosed = errors.New("srv: server is shutting down")
	// ErrPanicked marks a session whose simulation panicked inside a step
	// (HTTP 500): it is failed, with the panic value in its terminal error.
	ErrPanicked = errors.New("srv: session panicked")
	// ErrNoCheckpointDir marks checkpoint/restore requests on a server
	// started without -ckpt-dir (HTTP 400).
	ErrNoCheckpointDir = errors.New("srv: server has no checkpoint directory (-ckpt-dir)")
)

// badSpecf builds an ErrBadSpec with detail.
func badSpecf(format string, args ...any) error {
	return fmt.Errorf("%w: %s", ErrBadSpec, fmt.Sprintf(format, args...))
}

// SessionConfig is the JSON body of POST /sessions: either a fresh spec
// (the same knobs as batch pmsim, so a served session can be compared bit
// for bit against a CLI run) or a restore from a previously written
// checkpoint. The zero value of every optional field picks the pmsim
// default.
type SessionConfig struct {
	// Name optionally fixes the session id (default: server-assigned
	// "s1", "s2", …). Restore resumes from the named checkpoint file in
	// the server's checkpoint directory instead of building a fresh
	// session; it composes with Name only.
	Name    string `json:"name,omitempty"`
	Restore string `json:"restore,omitempty"`

	// Ports (default 8) and Buf (default 64) size the switch; Cycles
	// (required) is the driven window, after which the switch drains.
	Ports  int   `json:"ports,omitempty"`
	Buf    int   `json:"buf,omitempty"`
	Cycles int64 `json:"cycles,omitempty"`

	// Traffic selects the arrival process: bernoulli (default),
	// saturation, bursty, hotspot, permutation, trace. Load defaults to
	// 0.8 where it applies; Burst is the mean burst length (bursty), Hot
	// the hotspot fraction and HotPort its target, Schedule the initial
	// trace rows (trace sessions accept more via /inject).
	Traffic  string  `json:"traffic,omitempty"`
	Load     float64 `json:"load,omitempty"`
	Burst    float64 `json:"burst,omitempty"`
	Hot      float64 `json:"hot,omitempty"`
	HotPort  int     `json:"hot_port,omitempty"`
	Seed     uint64  `json:"seed,omitempty"`
	Schedule [][]int `json:"schedule,omitempty"`

	// Policy is a bufmgr admission-policy spec ("dt:alpha=2"); empty
	// keeps complete sharing by backpressure.
	Policy string `json:"policy,omitempty"`

	// FaultPlan is a fault-plan text (one "@cycle kind k=v…" event per
	// line); FaultSeed resolves its "any" targets. ECC configures the
	// protection the plan is run against.
	FaultPlan string `json:"fault_plan,omitempty"`
	FaultSeed uint64 `json:"fault_seed,omitempty"`
	ECC       bool   `json:"ecc,omitempty"`

	// AuditEvery and Watchdog arm the session's online invariant auditor
	// and no-progress watchdog (cycles; 0 = off).
	AuditEvery int64 `json:"audit_every,omitempty"`
	Watchdog   int64 `json:"watchdog,omitempty"`
}

// sessionAllocBudget is what one session's switch may grow to, in bytes.
// core.New allocates Stages×Cells buffer words up front, and the switch
// grows its descriptor pool to Cells×Ports nodes and its latency histogram
// to every resolved bucket as a run needs them — a restore allocates the
// full pool at once — so Spec prices the geometry at that worst case first
// (allocBound) and turns away what would not fit: a single POST /sessions
// must not be able to take the whole fleet's memory. A constant, not an
// option — 64 MiB holds, for example, an 8-port switch of 95,000 cells or
// a 64-port one of 11,000.
const sessionAllocBudget = 64 << 20

// allocBound bounds from above the bytes a session of a ports×ports switch
// of buf cells can hold, not the smaller amount ckpt.New allocates: every
// descriptor node in use by multicast and every latency bucket resolved.
// It charges ≤ 84 per descriptor node of the full pool (the node, its
// queue and free-list links, its share of the 2·ports×buf buffer words and
// their check bits), 32 per ports² (the two input rows the switch owns
// per link, 2·ports·stages words of 8 bytes with stages = 2·ports) and
// ≤ 512 per port (the other per-link tables of the switch, the traffic
// stream and the runner), over a fixed cost of some 5 KiB plus the
// 32 KiB latency histogram. In floating point, so that no geometry a
// request can spell overflows it.
func allocBound(ports, buf int) float64 {
	p, b := float64(ports), float64(buf)
	return 88*p*b + 32*p*p + 512*p + 128<<10
}

// parseKind resolves a traffic-kind name.
func parseKind(s string) (traffic.Kind, error) {
	switch s {
	case "", "bernoulli":
		return traffic.Bernoulli, nil
	case "saturation":
		return traffic.Saturation, nil
	case "bursty":
		return traffic.Bursty, nil
	case "hotspot":
		return traffic.Hotspot, nil
	case "permutation":
		return traffic.Permutation, nil
	case "trace":
		return traffic.Trace, nil
	}
	return 0, badSpecf("unknown traffic kind %q (bernoulli|saturation|bursty|hotspot|permutation|trace)", s)
}

// Spec translates the config into a ckpt.Spec, applying pmsim's defaults
// so a served session and `pmsim -arch rtl` with the same knobs run the
// identical simulation. Every rejection wraps ErrBadSpec (HTTP 400).
func (c SessionConfig) Spec() (ckpt.Spec, error) {
	var spec ckpt.Spec
	if c.Restore != "" {
		return spec, badSpecf("restore does not combine with a fresh session spec")
	}
	ports := c.Ports
	if ports == 0 {
		ports = 8
	}
	buf := c.Buf
	if buf == 0 {
		buf = 64
	}
	if c.Cycles <= 0 {
		return spec, badSpecf("cycles must be positive (got %d)", c.Cycles)
	}
	if cost := allocBound(ports, buf); cost > sessionAllocBudget {
		return spec, badSpecf("ports=%d buf=%d needs about %.0f MiB of switch state; a session may take %d MiB", ports, buf, cost/(1<<20), sessionAllocBudget>>20)
	}
	kind, err := parseKind(c.Traffic)
	if err != nil {
		return spec, err
	}
	load := c.Load
	if load == 0 && (kind == traffic.Bernoulli || kind == traffic.Bursty || kind == traffic.Hotspot) {
		load = 0.8
	}
	tcfg := traffic.Config{
		Kind: kind, N: ports, Load: load, BurstLen: c.Burst,
		HotFrac: c.Hot, HotPort: c.HotPort, Seed: c.Seed, Schedule: c.Schedule,
	}
	if err := tcfg.Validate(); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if c.Policy != "" {
		if _, err := bufmgr.Parse(c.Policy); err != nil {
			return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
	}
	spec = ckpt.Spec{
		Switch:  core.Config{Ports: ports, WordBits: 16, Cells: buf, CutThrough: !c.ECC, ECC: c.ECC},
		Traffic: tcfg,
		Cycles:  c.Cycles,
		Policy:  c.Policy,
	}
	if err := spec.Switch.Canonical().Validate(); err != nil {
		return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if c.FaultPlan != "" {
		plan, err := fault.Parse(c.FaultPlan)
		if err != nil {
			return spec, fmt.Errorf("%w: %v", ErrBadSpec, err)
		}
		spec.Plan, spec.FaultSeed = plan, c.FaultSeed
	}
	if c.AuditEvery < 0 || c.Watchdog < 0 {
		return spec, badSpecf("audit_every and watchdog must be >= 0")
	}
	return spec, nil
}
