package prizma

import (
	"errors"
	"testing"
	"testing/quick"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

func mustSwitch(t *testing.T, cfg Config) *Switch {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func stream(t *testing.T, cfg traffic.Config, k int) *traffic.CellStream {
	t.Helper()
	cs, err := traffic.NewCellStream(cfg, k)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestValidate(t *testing.T) {
	if err := (Config{Ports: 8, Banks: 256, WordBits: 16}).Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []Config{
		{Ports: 0},
		{Ports: 4, Banks: 1},
		{Ports: 4, WordBits: 70},
	} {
		if err := c.Validate(); !errors.Is(err, core.ErrBadConfig) {
			t.Errorf("bad config %d: got %v, want ErrBadConfig", i, err)
		}
	}
	// §5.3's worked example: Telegraphos III-sized PRIZMA has M = 256
	// banks for 2n = 16, so its crossbars cost 256/16 = 16× more.
	s := mustSwitch(t, Config{Ports: 8, Banks: 256, WordBits: 16})
	if got := s.RouterCrossbarPoints(); got != 8*256 {
		t.Fatalf("router crosspoints = %d, want 2048", got)
	}
}

// TestNoCutThrough: the defining §5.3 limitation — a single-ported bank
// cannot be read while written, so the head waits at least a full cell
// time (store-and-forward only).
func TestNoCutThrough(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, Banks: 8, WordBits: 16})
	k := s.Config().CellWords // 4
	var got []*cell.Cell
	var lat int64
	s.SetDepartureSink(func(d *cell.Cell, _ int, headIn, headOut int64, _ bool) {
		got, lat = append(got, d), headOut-headIn
	})
	c := cell.New(1, 0, 1, k, 16)
	s.Tick([]*cell.Cell{c, nil})
	for i := 0; i < 5*k; i++ {
		s.Tick(nil)
	}
	if len(got) != 1 || got[0] != c {
		t.Fatalf("departures %v, want the one cell injected", got)
	}
	if lat < int64(k) {
		t.Fatalf("head latency %d < cell time %d: impossible without cut-through", lat, k)
	}
}

// TestIntegrityAndConservation under random and saturation traffic.
func TestIntegrityAndConservation(t *testing.T) {
	for _, load := range []float64{0.5, 1.0} {
		s := mustSwitch(t, Config{Ports: 4, Banks: 64, WordBits: 16})
		kind := traffic.Bernoulli
		if load == 1.0 {
			kind = traffic.Saturation
		}
		cs := stream(t, traffic.Config{Kind: kind, N: 4, Load: load, Seed: 3}, s.Config().CellWords)
		res, err := core.Run(s, cs, 20_000)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		if res.Delivered == 0 {
			t.Fatalf("load %v: nothing delivered", load)
		}
	}
}

// TestFullLoadPermutation: with enough banks the interleaved organization
// sustains full admissible load (its scalability claim).
func TestFullLoadPermutation(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, Banks: 64, WordBits: 16})
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: 4, Load: 1, Seed: 7}, s.Config().CellWords)
	res, err := core.Run(s, cs, 40_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops with ample banks", res.Dropped)
	}
	if res.Utilization < 0.95 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

// TestBankExhaustion: each cell monopolizes one bank for ≥ 2 cell times
// (write + read), so with too few banks cells drop — the memory-
// fragmentation cost of one-cell banks.
func TestBankExhaustion(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, Banks: 4, WordBits: 16})
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 9}, s.Config().CellWords)
	res, err := core.Run(s, cs, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops with 4 banks at saturation; exhaustion path untested")
	}
}

// TestQuick sweeps geometry.
func TestQuick(t *testing.T) {
	f := func(seed uint64, portsRaw, loadRaw uint8) bool {
		ports := 2 + int(portsRaw%7)
		load := 0.1 + float64(loadRaw%90)/100
		s, err := New(Config{Ports: ports, Banks: 8 * ports, WordBits: 16})
		if err != nil {
			return false
		}
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: load, Seed: seed}, s.Config().CellWords)
		if err != nil {
			return false
		}
		_, err = core.Run(s, cs, 3_000)
		return err == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

// TestDeepBanksReduceCrossbarButHurtPerformance validates the §5.3
// remark: with the same total capacity, fewer-but-deeper banks shrink the
// n×M crossbars yet lose throughput under saturation, because residents
// of a bank serialize behind its single port (and a deep bank mid-write
// blocks reads of its other residents).
func TestDeepBanksReduceCrossbarButHurtPerformance(t *testing.T) {
	const ports = 4
	run := func(banks, depth int) (thr float64, crosspoints int) {
		s := mustSwitch(t, Config{Ports: ports, Banks: banks, CellsPerBank: depth, WordBits: 16})
		if got := s.Geometry().Cells; got != 32 {
			t.Fatalf("capacity %d, want equal totals", got)
		}
		cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 17}, s.Config().CellWords)
		res, err := core.Run(s, cs, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		return res.Utilization, s.RouterCrossbarPoints()
	}
	thrShallow, xbShallow := run(32, 1)
	thrDeep, xbDeep := run(8, 4)
	if xbDeep >= xbShallow {
		t.Fatalf("deep banks did not shrink the crossbar: %d vs %d", xbDeep, xbShallow)
	}
	if thrDeep >= thrShallow-0.02 {
		t.Fatalf("deep banks did not hurt performance: %.3f vs %.3f", thrDeep, thrShallow)
	}
	if thrDeep < 0.2 {
		t.Fatalf("deep-bank throughput %.3f implausibly low", thrDeep)
	}
}

// TestDeepBankIntegrity: depth > 1 still delivers every accepted cell
// intact (core.Run checks conservation and payloads).
func TestDeepBankIntegrity(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, Banks: 8, CellsPerBank: 4, WordBits: 16})
	cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.6, Seed: 19}, s.Config().CellWords)
	res, err := core.Run(s, cs, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered == 0 {
		t.Fatal("nothing delivered")
	}
}
