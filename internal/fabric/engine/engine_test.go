package engine

import (
	"errors"
	"strings"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// bfly4 is the 4-terminal radix-2 butterfly, hand-wired: stage 0 node i
// output j feeds stage 1 node j port i, so stage 0 routes on dst/2 and
// stage 1 on dst%2.
type bfly4 struct{}

func (bfly4) Stages() int                            { return 2 }
func (bfly4) NodesAt(int) int                        { return 2 }
func (bfly4) Radix() int                             { return 2 }
func (bfly4) Terminals() int                         { return 4 }
func (bfly4) Downstream(_, node, out int) (int, int) { return out, node }
func (bfly4) RouteDst(st, dst int) int               { return dst >> (1 - st) & 1 }
func (bfly4) InjectPoint(term int) (int, int)        { return term % 2, term / 2 }
func (bfly4) EjectTerminal(node, out int) int        { return 2*node + out }

// deadEnd is bfly4 with stage 0's node 0 wired to nothing.
type deadEnd struct{ bfly4 }

func (deadEnd) Downstream(_, node, out int) (int, int) {
	if node == 0 {
		return -1, -1
	}
	return out, node
}

func bflyConfig() Config {
	return Config{
		Topo: bfly4{}, WordBits: 16, SwitchCells: 8, Credits: 2,
		CutThrough: true, Workers: 1,
	}
}

func TestEngineDeliversIdentity(t *testing.T) {
	e, err := New(bflyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for term := 0; term < 4; term++ {
		e.Inject(term, term, uint64(term+1))
	}
	for i := 0; i < 200; i++ {
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
	if e.Delivered() != 4 {
		t.Fatalf("delivered %d of 4", e.Delivered())
	}
	if e.InFlight() != 0 {
		t.Fatalf("%d cells still in flight", e.InFlight())
	}
	if err := e.Audit(); err != nil {
		t.Fatalf("audit: %v", err)
	}
}

// TestEngineGateFollowsCredits audits at every barrier of a hot-spot run
// that the pushed gate levels equal the credit state they are derived
// from — through both return paths: barrier releases and the retirement
// of cells a stage-1 policy refused.
func TestEngineGateFollowsCredits(t *testing.T) {
	cfg := bflyConfig()
	cfg.Policy = "static:quota=1"
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var seq uint64
	closed := 0
	for c := 0; c < 600; c++ {
		if c%e.CellWords() == 0 && c < 400 {
			for term := 0; term < 4; term++ {
				seq++
				e.Inject(term, 0, seq)
			}
		}
		if err := e.Step(); err != nil {
			t.Fatalf("step %d: %v", c, err)
		}
		if err := e.Audit(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		for i := 0; i < 2; i++ {
			for out := 0; out < 2; out++ {
				if !e.NodeAt(0, i).OutputOpen(out) {
					closed++
				}
			}
		}
	}
	refused := e.NodeAt(1, 0).Counts().DropPolicy
	if closed == 0 || refused == 0 || e.InFlight() != 0 {
		t.Fatalf("vacuous or stuck: %d closed-gate observations, %d stage-1 refusals, %d in flight", closed, refused, e.InFlight())
	}
}

func TestEngineConfigErrors(t *testing.T) {
	for name, mut := range map[string]func(*Config){
		"nil-topo":           func(c *Config) { c.Topo = nil },
		"zero-cells":         func(c *Config) { c.SwitchCells = 0 },
		"negative-credits":   func(c *Config) { c.Credits = -1 },
		"negative-workers":   func(c *Config) { c.Workers = -1 },
		"credits-past-int32": func(c *Config) { c.Credits = 1 << 31 },
		"dead-end-node":      func(c *Config) { c.Topo = deadEnd{} },
	} {
		cfg := bflyConfig()
		mut(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestEngineBadPolicyIsErrBadConfig(t *testing.T) {
	cfg := bflyConfig()
	cfg.Policy = "nonsense:threshold=-3"
	_, err := New(cfg)
	if !errors.Is(err, bufmgr.ErrBadConfig) {
		t.Fatalf("err = %v, want ErrBadConfig", err)
	}
}

// TestEngineRejectsBadSequenceNumbers pins Inject's contract: sequence
// numbers start at 1 and only increase, and Step reports any other; Drive
// numbers on from the last one injected, whoever injected it.
func TestEngineRejectsBadSequenceNumbers(t *testing.T) {
	for _, tc := range []struct {
		name   string
		run    func(e *Engine) error
		refuse bool
	}{
		{"reserved-zero", func(e *Engine) error {
			e.Inject(0, 0, 0)
			return e.Step()
		}, true},
		{"duplicate-in-flight", func(e *Engine) error {
			e.Inject(0, 0, 7)
			e.Inject(1, 1, 7)
			return e.Step()
		}, true},
		{"below-the-last", func(e *Engine) error {
			e.Inject(0, 0, 7)
			e.Inject(1, 1, 5)
			return e.Step()
		}, true},
		{"drive-after-inject", func(e *Engine) error {
			// Drive's first heads would be numbered 2…5 from Injected, while
			// cell 3 is still crossing the net.
			e.Inject(0, 0, 3)
			for i := 0; i < e.CellWords(); i++ {
				if err := e.Step(); err != nil {
					return err
				}
			}
			cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: 4, Load: 1, Seed: 1}, e.CellWords())
			if err != nil {
				t.Fatal(err)
			}
			if err := e.Drive(cs, 200); err != nil {
				return err
			}
			if e.Injected() < 50 || e.lastSeq != uint64(e.Injected())+2 {
				t.Fatalf("injected %d, last seq %d", e.Injected(), e.lastSeq)
			}
			return e.Audit()
		}, false},
	} {
		e, err := New(bflyConfig())
		if err != nil {
			t.Fatal(err)
		}
		err = tc.run(e)
		e.Close()
		if refused := err != nil; refused != tc.refuse {
			t.Errorf("%s: error %v, want refused=%v", tc.name, err, tc.refuse)
		}
	}
}

func TestEngineMetrics(t *testing.T) {
	e, err := New(bflyConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	reg := obs.NewRegistry()
	e.RegisterMetrics(reg, "fabric")
	for term := 0; term < 4; term++ {
		e.Inject(term, term, uint64(term+1))
	}
	for i := 0; i < 200; i++ {
		if err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	e.SyncMetrics()
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"fabric_delivered_cells 4",
		"fabric_injected_cells 4",
		"fabric_latency_overflow 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestEngineWorkerClamp: worker counts are clamped to the bitmap word
// count, so a tiny fabric never spins idle goroutines.
func TestEngineWorkerClamp(t *testing.T) {
	cfg := bflyConfig()
	cfg.Workers = 8
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.Workers() != 1 { // 4 nodes → 1 bitmap word
		t.Fatalf("workers = %d, want 1", e.Workers())
	}
}
