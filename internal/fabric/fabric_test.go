package fabric

import (
	"testing"
	"testing/quick"

	"pipemem/internal/clos"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/traffic"
	"pipemem/internal/wormhole"
)

func mustNet(t *testing.T, cfg Config) *Net {
	t.Helper()
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidate(t *testing.T) {
	good := Config{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []Config{
		{Terminals: 12, Radix: 2, SwitchCells: 8}, // not a power
		{Terminals: 4, Radix: 4, SwitchCells: 8},  // single stage
		{Terminals: 16, Radix: 1, SwitchCells: 8}, // radix 1
		{Terminals: 16, Radix: 2, SwitchCells: 0}, // no buffer
		{Terminals: 16, Radix: 2, SwitchCells: 8, Credits: -1},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestLineMathRoundTrip: switchOf and lineOf are inverses at every stage.
func TestLineMathRoundTrip(t *testing.T) {
	for _, topo := range []topology{
		{n: 16, k: 2, stages: 4},
		{n: 64, k: 4, stages: 3},
		{n: 27, k: 3, stages: 3},
	} {
		for st := 0; st < topo.stages; st++ {
			for l := 0; l < topo.n; l++ {
				sw, port := topo.switchOf(st, l)
				if got := topo.lineOf(st, sw, port); got != l {
					t.Fatalf("k=%d stage %d: line %d → (%d,%d) → %d", topo.k, st, l, sw, port, got)
				}
			}
		}
	}
}

// smallNets is one 16-terminal net of each topology, for the tests whose
// assertions do not depend on the wiring.
var smallNets = map[string]func() (*Net, error){
	"butterfly": func() (*Net, error) {
		return New(Config{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	},
	"clos": func() (*Net, error) {
		return clos.New(clos.Config{Radix: 4, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	},
}

// TestAllPairsDelivery: one cell from every terminal to every terminal,
// exhaustively — the routing (destination digits; any Clos middle) must
// land each cell exactly at its terminal with an intact payload (Step
// errors otherwise).
func TestAllPairsDelivery(t *testing.T) {
	for name, build := range smallNets {
		t.Run(name, func(t *testing.T) {
			f, err := build()
			if err != nil {
				t.Fatal(err)
			}
			n := f.Terminals()
			var seq uint64
			for dst := 0; dst < n; dst++ {
				for term := 0; term < n; term++ {
					seq++
					f.Inject(term, dst, seq)
					// Space injections generously: correctness, not throughput.
					for i := 0; i < 4*f.CellWords(); i++ {
						if err := f.Step(); err != nil {
							t.Fatal(err)
						}
					}
				}
			}
			for i := 0; i < 300; i++ {
				if err := f.Step(); err != nil {
					t.Fatal(err)
				}
			}
			if f.Delivered() != int64(n*n) {
				t.Fatalf("delivered %d of %d cells", f.Delivered(), n*n)
			}
			if f.Corrupt() != 0 || f.Drops() != 0 {
				t.Fatalf("corrupt=%d drops=%d", f.Corrupt(), f.Drops())
			}
		})
	}
}

// TestChainedCutThrough: at light load the end-to-end head latency is a
// small constant per hop — the head is ejected long before the tail has
// entered the first switch, which is only possible if cut-through chains
// across stages.
func TestChainedCutThrough(t *testing.T) {
	const n = 64 // 6 stages of 2×2 switches, cells of 4 words
	f := mustNet(t, Config{Terminals: n, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	f.Inject(5, 37, 1)
	for i := 0; i < 200; i++ {
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	if f.Delivered() != 1 {
		t.Fatalf("delivered %d", f.Delivered())
	}
	lat := f.Latency().Mean()
	// Per hop: 2 cycles through the switch + 1 wire register = 3; the
	// last hop adds its own 2. Anything near stages*3 is chained
	// cut-through; store-and-forward would cost ≥ stages*(K+2) = 36.
	stages := 6
	if lat > float64(stages*4) {
		t.Fatalf("head latency %v cycles: not chained cut-through (SF would be ≥ %d)", lat, stages*(f.CellWords()+2))
	}
}

// TestStoreAndForwardFabricSlower: the same fabric without cut-through
// pays ≈K+ cycles per hop.
func TestStoreAndForwardFabricSlower(t *testing.T) {
	const n = 16
	ct := mustNet(t, Config{Terminals: n, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: true})
	sf := mustNet(t, Config{Terminals: n, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 2, CutThrough: false})
	for _, f := range []*Net{ct, sf} {
		f.Inject(3, 12, 1)
		for i := 0; i < 300; i++ {
			if err := f.Step(); err != nil {
				t.Fatal(err)
			}
		}
		if f.Delivered() != 1 {
			t.Fatalf("delivered %d", f.Delivered())
		}
	}
	if sf.Latency().Mean() < ct.Latency().Mean()+8 {
		t.Fatalf("SF latency %v not clearly above CT %v", sf.Latency().Mean(), ct.Latency().Mean())
	}
}

// TestLosslessUnderLoad: with credits the fabric delivers everything —
// zero drops, zero corruption — under sustained random traffic.
func TestLosslessUnderLoad(t *testing.T) {
	f := mustNet(t, Config{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: 3, CutThrough: true})
	res, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.5, Seed: 3}, 2_000, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Drops != 0 || res.Corrupt != 0 {
		t.Fatalf("drops=%d corrupt=%d", res.Drops, res.Corrupt)
	}
	if res.Throughput < 0.45 {
		t.Fatalf("throughput %v at offered 0.5", res.Throughput)
	}
}

// TestCreditsBoundOccupancy: no node's buffer ever exceeds radix×credits
// cells — the flow control really is what bounds memory.
func TestCreditsBoundOccupancy(t *testing.T) {
	const credits = 2
	f := mustNet(t, Config{Terminals: 16, Radix: 2, WordBits: 16, SwitchCells: 16, Credits: credits, CutThrough: true})
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: 16, Seed: 5}, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	const k, nodes = 2, 8
	for c := 0; c < 20_000; c++ {
		if err := f.Drive(cs, 1); err != nil {
			t.Fatal(err)
		}
		// Interior stages (credit-protected inputs) must stay bounded.
		for st := 1; st < f.Stages(); st++ {
			for i := 0; i < nodes; i++ {
				if got := f.NodeAt(st, i).Buffered(); got > k*credits {
					t.Fatalf("cycle %d stage %d switch %d: %d cells buffered > k×credits = %d",
						c, st, i, got, k*credits)
				}
			}
		}
	}
}

// TestSharedBufferFabricBeatsWormhole is the headline composition result:
// on the same multistage topology, shared-buffer cut-through nodes
// sustain much higher saturation throughput than input-FIFO wormhole
// nodes — §2's architecture ranking, composed.
func TestSharedBufferFabricBeatsWormhole(t *testing.T) {
	const n = 64
	f := mustNet(t, Config{Terminals: n, Radix: 2, WordBits: 16, SwitchCells: 32, Credits: 4, CutThrough: true})
	fres, err := f.Run(traffic.Config{Kind: traffic.Saturation, Seed: 7}, 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wormhole.New(wormhole.Config{Terminals: n, BufferFlits: 16, MsgFlits: 20, Saturate: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	wres, err := wormhole.Run(w, 10_000, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if fres.Corrupt != 0 {
		t.Fatalf("fabric corrupt=%d", fres.Corrupt)
	}
	if fres.Throughput < wres.Throughput+0.15 {
		t.Fatalf("shared-buffer fabric %.3f not clearly above wormhole %.3f",
			fres.Throughput, wres.Throughput)
	}
}

// TestDeterminism: same seed → same result.
func TestDeterminism(t *testing.T) {
	for name, build := range smallNets {
		t.Run(name, func(t *testing.T) {
			run := func() engine.Result {
				f, err := build()
				if err != nil {
					t.Fatal(err)
				}
				res, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.4, Seed: 11}, 1_000, 10_000)
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			if a, b := run(), run(); a != b {
				t.Fatalf("nondeterministic: %+v vs %+v", a, b)
			}
		})
	}
}

// TestRadix4: higher-radix nodes work too (8-word cells, 2 stages).
func TestRadix4(t *testing.T) {
	f := mustNet(t, Config{Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 32, Credits: 2, CutThrough: true})
	res, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.6, Seed: 13}, 2_000, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 || res.Drops != 0 {
		t.Fatalf("corrupt=%d drops=%d", res.Corrupt, res.Drops)
	}
	if res.Throughput < 0.5 {
		t.Fatalf("throughput %v at offered 0.6", res.Throughput)
	}
}

// TestLineMathQuick: switchOf/lineOf round-trip and routing consistency
// for random radices and sizes (property-based).
func TestLineMathQuick(t *testing.T) {
	f := func(kRaw, sRaw uint8) bool {
		k := 2 + int(kRaw%3)      // radix 2..4
		stages := 2 + int(sRaw%3) // 2..4 stages
		n := 1
		for i := 0; i < stages; i++ {
			n *= k
		}
		net := topology{n: n, k: k, stages: stages}
		for st := 0; st < net.stages; st++ {
			for l := 0; l < net.n; l++ {
				sw, port := net.switchOf(st, l)
				if net.lineOf(st, sw, port) != l {
					return false
				}
			}
		}
		// Routing consistency: following the route digits from any
		// terminal reaches exactly dst.
		for term := 0; term < n; term += 1 + n/7 {
			for dst := 0; dst < n; dst += 1 + n/5 {
				line := term
				for st := 0; st < net.stages; st++ {
					sw, _ := net.switchOf(st, line)
					line = net.lineOf(st, sw, net.RouteDst(st, dst))
				}
				if line != dst {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
