package core

import (
	"errors"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// Integration tests for the shared-buffer management layer: every policy
// must keep the conservation invariant (offered = delivered + dropped +
// pending — RunTraffic fails the run otherwise), the drop breakdown must
// reconcile, and the threshold policies must actually deliver the
// isolation they promise.

// runPolicy drives a switch under the given policy spec and traffic.
func runPolicy(t *testing.T, spec string, cfg Config, tcfg traffic.Config, cycles int64) RunResult {
	t.Helper()
	s := mustSwitch(t, cfg)
	if spec != "" {
		p, err := bufmgr.Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		s.SetBufferPolicy(p)
	}
	cs := stream(t, tcfg, s.Config().Stages)
	res, err := RunTraffic(s, cs, cycles)
	if err != nil {
		t.Fatalf("policy %q: %v", spec, err)
	}
	// After the drain the buffer is empty; the O(1) per-output occupancy
	// must agree.
	for o := 0; o < cfg.Ports; o++ {
		if q := s.QueuedFor(o); q != 0 {
			t.Fatalf("policy %q: output %d occupancy %d after drain", spec, o, q)
		}
	}
	return res
}

// coldLoss sums losses on every output except hot.
func coldLoss(res RunResult, hot int) int64 {
	var sum int64
	for o, d := range res.OutputDrops {
		if o != hot {
			sum += d
		}
	}
	return sum
}

// TestPolicyConservationAndAccounting runs every built-in policy (plus
// parameterized variants) under hotspot overload — the regime that
// exercises drops and push-outs — and checks the books: RunTraffic's
// internal conservation gate passed, the drop breakdown sums to Dropped,
// and the per-input/per-output loss vectors reconcile with the totals.
func TestPolicyConservationAndAccounting(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true}
	specs := append(bufmgr.Specs(),
		"dt:alpha=0.5", "dt:alpha=4", "static:quota=2", "dd:target=64")
	for _, kind := range []traffic.Kind{traffic.Hotspot, traffic.Bursty} {
		for _, spec := range specs {
			tcfg := traffic.Config{Kind: kind, N: 4, Load: 0.9, Seed: 7}
			if kind == traffic.Hotspot {
				tcfg.HotFrac = 0.6
			} else {
				tcfg.BurstLen = 8
			}
			res := runPolicy(t, spec, cfg, tcfg, 30_000)
			if res.Delivered == 0 {
				t.Fatalf("%v/%q: nothing delivered", kind, spec)
			}
			if got := res.DropOverrun + res.DropPolicy + res.DropPushOut; got != res.Dropped {
				t.Errorf("%v/%q: breakdown %d ≠ dropped %d", kind, spec, got, res.Dropped)
			}
			var inSum, outSum int64
			for _, d := range res.InputDrops {
				inSum += d
			}
			for _, d := range res.OutputDrops {
				outSum += d
			}
			// Arrival-side losses (overrun + policy) are booked per input;
			// all losses are booked per destination output.
			if want := res.DropOverrun + res.DropPolicy; inSum != want {
				t.Errorf("%v/%q: input drops %d ≠ overrun+policy %d", kind, spec, inSum, want)
			}
			if outSum != res.Dropped {
				t.Errorf("%v/%q: output drops %d ≠ dropped %d", kind, spec, outSum, res.Dropped)
			}
		}
	}
}

// TestInputStallsSurfaceBackpressure pins the silent-retry fix: under a
// hotspot that exhausts a small buffer, the per-input stall counters must
// show the waiting that used to be invisible.
func TestInputStallsSurfaceBackpressure(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 8, CutThrough: true}
	tcfg := traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.95, HotFrac: 0.9, Seed: 5}
	res := runPolicy(t, "", cfg, tcfg, 20_000)
	if len(res.InputStalls) != cfg.Ports {
		t.Fatalf("InputStalls has %d entries, want %d", len(res.InputStalls), cfg.Ports)
	}
	var stalls int64
	for _, v := range res.InputStalls {
		stalls += v
	}
	if stalls == 0 {
		t.Fatal("no input stalls recorded under buffer exhaustion")
	}
	if res.Dropped > 0 {
		var drops int64
		for _, v := range res.InputDrops {
			drops += v
		}
		if drops != res.Dropped {
			t.Fatalf("per-input drops %d ≠ dropped %d (complete sharing loses only at inputs)", drops, res.Dropped)
		}
	}
}

// TestDynamicThresholdProtectsColdPorts mirrors the acceptance criterion
// at test scale: under hotspot overload, the Choudhury–Hahne threshold
// must lose strictly fewer non-hot-port cells than both the static
// partition and complete sharing, because it caps the hot queue while
// letting cold queues borrow the headroom.
func TestDynamicThresholdProtectsColdPorts(t *testing.T) {
	cfg := Config{Ports: 8, WordBits: 16, Cells: 32, CutThrough: true}
	tcfg := traffic.Config{Kind: traffic.Hotspot, N: 8, Load: 0.9, HotFrac: 0.5, Seed: 4242}
	const cycles = 120_000
	cold := map[string]int64{}
	for _, spec := range []string{"share", "static", "dt"} {
		res := runPolicy(t, spec, cfg, tcfg, cycles)
		cold[spec] = coldLoss(res, tcfg.HotPort)
		t.Logf("%-7s dropped=%d (overrun=%d policy=%d pushout=%d) cold-loss=%d",
			spec, res.Dropped, res.DropOverrun, res.DropPolicy, res.DropPushOut, cold[spec])
	}
	if cold["dt"] >= cold["static"] {
		t.Errorf("dt cold-port loss %d not strictly below static partition %d", cold["dt"], cold["static"])
	}
	if cold["dt"] >= cold["share"] {
		t.Errorf("dt cold-port loss %d not strictly below complete sharing %d", cold["dt"], cold["share"])
	}
}

// TestPushOutShiftsLossToHog: with the preemptive policy, a full buffer
// admits cold-port arrivals by evicting the hog's cells, so push-outs
// land overwhelmingly on the hot output and every loss is a push-out
// (the policy never refuses an arrival).
func TestPushOutShiftsLossToHog(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 8, CutThrough: true}
	tcfg := traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.95, HotFrac: 0.8, Seed: 13}
	res := runPolicy(t, "pushout", cfg, tcfg, 40_000)
	if res.DropPushOut == 0 {
		t.Fatal("no push-outs under hotspot overload; test is vacuous")
	}
	if res.DropPolicy != 0 {
		t.Errorf("push-out policy refused %d arrivals; it must only preempt", res.DropPolicy)
	}
	hot := res.OutputDrops[tcfg.HotPort]
	if cold := coldLoss(res, tcfg.HotPort); hot <= cold {
		t.Errorf("hot-port loss %d not above cold-port loss %d under LQF push-out", hot, cold)
	}
}

// TestPolicyTickZeroAlloc extends the zero-alloc pin to the policied
// admission path: consulting a policy, dropping, and pushing out must
// allocate nothing (the State adapter is pre-boxed, verdicts are
// values).
func TestPolicyTickZeroAlloc(t *testing.T) {
	for _, spec := range []string{"dt:alpha=0.5", "pushout", "static:quota=2"} {
		p, err := bufmgr.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		// A small buffer under a hard hotspot keeps the drop/push-out
		// paths hot during the measured window.
		cfg := Config{Ports: 8, WordBits: 16, Cells: 8, CutThrough: true}
		tick := tickHarnessPolicy(t, cfg,
			traffic.Config{Kind: traffic.Hotspot, N: 8, Load: 0.95, HotFrac: 0.8, Seed: 42}, p)
		for i := 0; i < 4*256; i++ {
			tick()
		}
		if allocs := testing.AllocsPerRun(2000, tick); allocs != 0 {
			t.Fatalf("policy %q: Tick allocates %.2f/op, want 0", spec, allocs)
		}
	}
}

// TestRunnerZeroAllocUnderDrops: the runner takes the switch's drop hook,
// so a lost cell returns to the pool like a delivered one and a lossy
// steady state allocates nothing at all — not "less than one per cycle":
// the whole measured window is one AllocsPerRun call.
func TestRunnerZeroAllocUnderDrops(t *testing.T) {
	sw8 := Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	hot := traffic.Config{Kind: traffic.Hotspot, N: 8, Load: 0.9, HotFrac: 0.5, Seed: 42}
	for _, tc := range []struct {
		name    string
		cfg     Config
		traffic traffic.Config
		policy  string
		lost    func(*Counts) int64
	}{
		{"dt-hotspot", Config{Ports: 8, WordBits: 16, Cells: 64, ECC: true}, hot, "dt:alpha=2", func(c *Counts) int64 { return c.DropPolicy }},
		{"pushout-hotspot", Config{Ports: 8, WordBits: 16, Cells: 64, CutThrough: true}, hot, "pushout", func(c *Counts) int64 { return c.DropPushout }},
		{"saturation-overrun", sw8, traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 42}, "", func(c *Counts) int64 { return c.DropOverrun }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustSwitch(t, tc.cfg)
			if tc.policy != "" {
				p, err := bufmgr.Parse(tc.policy)
				if err != nil {
					t.Fatal(err)
				}
				s.SetBufferPolicy(p)
			}
			r := NewRunner(s, stream(t, tc.traffic, s.Config().Stages), 1<<30)
			const window = 20_000
			for i := 0; i < window; i++ {
				r.Step()
			}
			before := tc.lost(&s.counts)
			allocs := testing.AllocsPerRun(1, func() {
				for i := 0; i < window; i++ {
					r.Step()
				}
			})
			if lost := tc.lost(&s.counts) - before; lost < 50 {
				t.Fatalf("only %d lost cells in the measured windows; the drive tests nothing", lost)
			}
			if allocs != 0 {
				t.Fatalf("%v allocations over %d lossy cycles, want 0", allocs, window)
			}
		})
	}
}

// TestRunnerRestoresDropHook: the runner borrows the switch's drop hook
// for the run and hands the caller's back, so losses after the run reach
// the caller again.
func TestRunnerRestoresDropHook(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	seen := 0
	s.SetDropCellHook(func(*cell.Cell) { seen++ })
	sat := traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 3}
	res, err := RunTraffic(s, stream(t, sat, k), 400)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 || seen != 0 {
		t.Fatalf("during the run: %d drops, caller's hook fired %d times; want drops and no calls", res.Dropped, seen)
	}
	// Overrun one input by hand: the second head displaces the first,
	// which a closed output kept from ever obtaining its write wave.
	gateAll(s, false)
	for s.FreeCells() > 0 {
		heads := make([]*cell.Cell, 4)
		heads[0] = cell.New(1, 0, 1, k, 16)
		s.TickN(heads, int64(k))
	}
	for i := 0; i < 2; i++ {
		heads := make([]*cell.Cell, 4)
		heads[0] = cell.New(2, 0, 1, k, 16)
		s.TickN(heads, int64(k))
	}
	if seen == 0 {
		t.Fatal("the caller's drop hook was not put back after the run")
	}
}

// tickHarnessPolicy is tickHarness with an admission policy installed
// (the shared helper doesn't expose the switch, so build it here).
func tickHarnessPolicy(t *testing.T, cfg Config, tcfg traffic.Config, p bufmgr.Policy) func() {
	t.Helper()
	s := mustSwitch(t, cfg)
	s.SetBufferPolicy(p)
	k := s.Config().Stages
	cs := stream(t, tcfg, k)
	pool := cell.NewPool(k)
	s.SetDrainRecycle(true)
	heads := make([]int, cfg.Ports)
	hc := make([]*cell.Cell, cfg.Ports)
	var seq uint64
	return func() {
		cs.Heads(heads)
		for j := range hc {
			hc[j] = nil
			if heads[j] != traffic.NoArrival {
				seq++
				hc[j] = pool.New(seq, j, heads[j], cfg.WordBits)
			}
		}
		s.Tick(hc)
		for _, d := range s.Drain() {
			pool.Put(d.Expected)
		}
	}
}

// FuzzPolicyConservation fuzzes the spec parser end to end: any spec the
// parser accepts must drive a full traffic run without panics and with
// the conservation invariant intact (RunTraffic errors on violation).
func FuzzPolicyConservation(f *testing.F) {
	for _, s := range bufmgr.Specs() {
		f.Add(s, uint64(1))
	}
	f.Add("dt:alpha=0.25", uint64(7))
	f.Add("static:quota=1", uint64(9))
	f.Add("dd:target=8", uint64(3))
	f.Fuzz(func(t *testing.T, spec string, seed uint64) {
		p, err := bufmgr.Parse(spec)
		if err != nil {
			if !errors.Is(err, bufmgr.ErrBadConfig) {
				t.Fatalf("Parse(%q) error %v does not wrap ErrBadConfig", spec, err)
			}
			return
		}
		s, err := New(Config{Ports: 4, WordBits: 8, Cells: 8, CutThrough: true})
		if err != nil {
			t.Fatal(err)
		}
		s.SetBufferPolicy(p)
		cs, err := traffic.NewCellStream(
			traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.7, Seed: seed}, s.Config().Stages)
		if err != nil {
			t.Fatal(err)
		}
		res, err := RunTraffic(s, cs, 3_000)
		if err != nil {
			t.Fatalf("policy %q: %v", p.Name(), err)
		}
		if got := res.DropOverrun + res.DropPolicy + res.DropPushOut; got != res.Dropped {
			t.Fatalf("policy %q: breakdown %d ≠ dropped %d", p.Name(), got, res.Dropped)
		}
	})
}

// TestPolicyObserverReconciles: the policy drop counters exported through
// the observer must match the run's own accounting, including the
// per-port gauge vectors.
func TestPolicyObserverReconciles(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true}
	s := mustSwitch(t, cfg)
	p, err := bufmgr.Parse("dt:alpha=0.5")
	if err != nil {
		t.Fatal(err)
	}
	s.SetBufferPolicy(p)
	reg := obs.NewRegistry()
	o := NewObserver(reg, cfg.Ports)
	s.SetObserver(o)
	cs := stream(t, traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.7, Seed: 21}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 30_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.DropPolicy == 0 {
		t.Fatal("no policy drops; test is vacuous")
	}
	if got := o.DropPolicy.Value(); got != res.DropPolicy {
		t.Errorf("DropPolicy counter %d, run %d", got, res.DropPolicy)
	}
	if got := o.DropPushOut.Value(); got != res.DropPushOut {
		t.Errorf("DropPushOut counter %d, run %d", got, res.DropPushOut)
	}
	for i := 0; i < cfg.Ports; i++ {
		if got := o.InputStalls.At(i).Value(); got != res.InputStalls[i] {
			t.Errorf("input %d stall gauge %d, run %d", i, got, res.InputStalls[i])
		}
		if got := o.InputDrops.At(i).Value(); got != res.InputDrops[i] {
			t.Errorf("input %d drop gauge %d, run %d", i, got, res.InputDrops[i])
		}
		if got := o.OutputDrops.At(i).Value(); got != res.OutputDrops[i] {
			t.Errorf("output %d drop gauge %d, run %d", i, got, res.OutputDrops[i])
		}
	}
}
