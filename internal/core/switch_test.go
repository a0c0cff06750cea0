package core

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"pipemem/internal/analytic"
	"pipemem/internal/cell"
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

// gateAll drives every output gate to one level — the tests' way to wedge
// a switch (nothing departs, the buffer fills) and release it again.
func gateAll(s *Switch, open bool) {
	for o := 0; o < s.Config().Ports; o++ {
		s.SetOutputOpen(o, open)
	}
}

func stream(t *testing.T, cfg traffic.Config, cellLen int) *traffic.CellStream {
	t.Helper()
	cs, err := traffic.NewCellStream(cfg, cellLen)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

func TestConfigValidate(t *testing.T) {
	good := Config{Ports: 4, WordBits: 16, Cells: 64, CutThrough: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	if got := good.Canonical().Stages; got != 8 {
		t.Fatalf("canonical stages = %d, want 8", got)
	}
	bad := []Config{
		{Ports: 0},
		{Ports: 4, WordBits: 65},
		{Ports: 4, Stages: 4}, // < 2n: unschedulable
		{Ports: 4, Cells: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
	// Telegraphos III capacity check: 8 ports, 16 stages, 16-bit words,
	// 256 cells = 64 Kbit.
	t3 := Config{Ports: 8, WordBits: 16, Cells: 256}
	if got := t3.CapacityBits(); got != 65536 {
		t.Fatalf("T3 capacity = %d bits, want 65536", got)
	}
}

// TestSingleCellCutThrough traces one cell through an otherwise idle
// switch and checks the §3.2/§3.3 timing exactly: head in at cycle 0,
// write-through at cycle 1, head out at cycle 2, tail out at cycle K+1.
func TestSingleCellCutThrough(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages // 4
	c := cell.New(1, 0, 1, k, 16)
	heads := []*cell.Cell{c.Clone(), nil}
	s.Tick(heads)
	for i := 0; i < 3*k; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 1 {
		t.Fatalf("%d departures, want 1", len(deps))
	}
	d := deps[0]
	if !d.Cell.Equal(c) {
		t.Fatalf("cell corrupted: got %v want %v", d.Cell.Words, c.Words)
	}
	if d.Output != 1 {
		t.Fatalf("departed on output %d, want 1", d.Output)
	}
	if d.HeadIn != 0 || d.HeadOut != 2 || d.TailOut != int64(k)+1 {
		t.Fatalf("timing: headIn=%d headOut=%d tailOut=%d, want 0,2,%d", d.HeadIn, d.HeadOut, d.TailOut, k+1)
	}
	if d.InitDelay != 0 {
		t.Fatalf("init delay %d on an idle switch", d.InitDelay)
	}
	// Cut-through: the head left (cycle 2) before the tail arrived
	// (cycle K-1 = 3): the defining property of §3.3.
	if d.HeadOut >= int64(k)-1 {
		t.Fatalf("no cut-through: head out at %d, tail in at %d", d.HeadOut, k-1)
	}
}

// TestStoreAndForwardLatency checks that disabling cut-through makes the
// head wait for the full cell: head-out at writeStart+K+1.
func TestStoreAndForwardLatency(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: false})
	k := s.Config().Stages
	c := cell.New(1, 0, 1, k, 16)
	s.Tick([]*cell.Cell{c, nil})
	for i := 0; i < 4*k; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 1 {
		t.Fatalf("%d departures, want 1", len(deps))
	}
	d := deps[0]
	// Write wave at cycle 1; eligible at 1+K; read wave at 1+K; head on
	// the link one cycle later.
	want := int64(k) + 2
	if d.HeadOut-d.HeadIn != want {
		t.Fatalf("store-and-forward head latency %d, want %d", d.HeadOut-d.HeadIn, want)
	}
}

// TestIntegrityRandomTraffic is the central invariant: every cell leaves
// bit-identical, under random traffic across sizes and loads.
func TestIntegrityRandomTraffic(t *testing.T) {
	for _, tc := range []struct {
		ports int
		load  float64
		cut   bool
	}{
		{2, 0.3, true}, {2, 1.0, true}, {4, 0.7, true}, {4, 1.0, false},
		{8, 0.9, true}, {8, 1.0, true}, {16, 0.5, true},
	} {
		cfg := Config{Ports: tc.ports, WordBits: 16, Cells: 64, CutThrough: tc.cut}
		s := mustSwitch(t, cfg)
		kind := traffic.Bernoulli
		if tc.load == 1.0 {
			kind = traffic.Saturation
		}
		cs := stream(t, traffic.Config{Kind: kind, N: tc.ports, Load: tc.load, Seed: 77}, s.Config().Stages)
		res, err := RunTraffic(s, cs, 20_000)
		if err != nil {
			t.Fatalf("ports=%d load=%v cut=%v: %v", tc.ports, tc.load, tc.cut, err)
		}
		if res.Corrupt != 0 {
			t.Fatalf("ports=%d: %d corrupted cells", tc.ports, res.Corrupt)
		}
		if res.Delivered == 0 {
			t.Fatalf("ports=%d: nothing delivered", tc.ports)
		}
	}
}

// TestFullLoadNoDropsAndFullUtilization is E9's core property: at 100%
// offered load with the canonical K = 2n stages, read-priority arbitration
// meets every write deadline (n reads + n writes fit in the 2n slots of
// each window — §2.3's "by suitably arranging these n memories, one buffer
// of throughput 2n can be constructed") and output utilization approaches
// 100% with zero loss.
func TestFullLoadNoDropsAndFullUtilization(t *testing.T) {
	const ports = 8
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 256, CutThrough: true})
	// Admissible full-rate traffic: a rotating permutation. (Uniform
	// random destinations at load 1 are critically loaded — per-output
	// queues perform an unbiased random walk and overflow any finite
	// buffer — so they are not the right workload for this claim.)
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: ports, Load: 1, Seed: 99}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 {
		t.Fatalf("%d drops at full load with 256-cell buffer", res.Dropped)
	}
	if res.Utilization < 0.98 {
		t.Fatalf("output utilization %v, want ≈1", res.Utilization)
	}
	if res.MaxBuffered > 3*ports {
		t.Fatalf("peak occupancy %d cells under admissible traffic", res.MaxBuffered)
	}
}

// TestNoOverrunAtFullLoadSmallBuffer: even with a small buffer, overrun
// drops (write deadline misses) must be the only loss mode, and with
// K = 2n and a buffer comfortably above 2n cells the switch must not
// overrun (backpressure-free admissible traffic).
func TestBufferExhaustionDrops(t *testing.T) {
	// A 2-port switch with a 1-cell buffer under saturation must drop
	// (uniform traffic sends ~half the cells into a busy output).
	s := mustSwitch(t, Config{Ports: 2, WordBits: 8, Cells: 1, CutThrough: true})
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: 2, Seed: 5}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped == 0 {
		t.Fatal("no drops with a 1-cell buffer at saturation; loss path untested")
	}
	if res.Corrupt != 0 {
		t.Fatalf("%d corrupt cells alongside drops", res.Corrupt)
	}
	// Delivered cells + drops must still conserve (RunTraffic checks).
}

// TestControlPipelineDelayedCopy verifies §3.3 literally: the control
// signals of stage s in cycle c equal those of stage s-1 in cycle c-1.
func TestControlPipelineDelayedCopy(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true})
	var events []TraceEvent
	s.SetTracer(func(e TraceEvent) { events = append(events, e) })
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 13}, s.Config().Stages)
	if _, err := RunTraffic(s, cs, 2_000); err != nil {
		t.Fatal(err)
	}
	if len(events) < 100 {
		t.Fatalf("only %d trace events", len(events))
	}
	for tIdx := 1; tIdx < len(events); tIdx++ {
		prev, cur := events[tIdx-1], events[tIdx]
		for st := 1; st < len(cur.Ctrl); st++ {
			if cur.Ctrl[st] != prev.Ctrl[st-1] {
				t.Fatalf("cycle %d stage %d: ctrl %v != stage %d's %v one cycle earlier",
					cur.Cycle, st, cur.Ctrl[st], st-1, prev.Ctrl[st-1])
			}
		}
	}
}

// TestSingleInitiationPerCycle verifies the staggered-initiation
// restriction of §3.4: stage 0 carries at most one fresh wave per cycle.
func TestSingleInitiationPerCycle(t *testing.T) {
	// Store-and-forward, so every cell needs one write and one read wave:
	// at full admissible load the initiation slot is busy every cycle
	// (n writes + n reads per 2n-cycle window). With cut-through many
	// waves merge into write-throughs and the slot has slack.
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: false})
	count := 0
	s.SetTracer(func(e TraceEvent) {
		if e.Ctrl[0].Kind != OpNone {
			count++
		}
	})
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: 4, Load: 1, Seed: 21}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 5_000)
	if err != nil {
		t.Fatal(err)
	}
	// Initiations = write waves + read waves ≤ cycles; at full load the
	// slot is nearly always in use.
	if int64(count) > res.Cycles {
		t.Fatalf("%d initiations in %d cycles", count, res.Cycles)
	}
	if float64(count) < 0.9*float64(res.Cycles) {
		t.Fatalf("only %d initiations in %d cycles at saturation", count, res.Cycles)
	}
}

// TestStaggeredInitiationDelayMatchesAnalytic reproduces §3.4: the mean
// extra cut-through latency from the one-wave-per-cycle restriction is
// ≈ (p/4)(n-1)/n cycles, measured here as the write wave's wait for the
// stage-0 slot at light-to-moderate load.
func TestStaggeredInitiationDelayMatchesAnalytic(t *testing.T) {
	const ports = 8
	for _, p := range []float64{0.2, 0.4} {
		s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 256, CutThrough: true})
		cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: p, Seed: 31}, s.Config().Stages)
		res, err := RunTraffic(s, cs, 400_000)
		if err != nil {
			t.Fatal(err)
		}
		want := analytic.StaggeredInitiationDelay(p, ports)
		// The measured delay includes second-order queueing of initiation
		// slots, so allow a generous band; the claim being reproduced is
		// "≈ 0.25·p and negligible".
		if res.MeanInitDelay > 2.5*want+0.01 || res.MeanInitDelay < 0.3*want {
			t.Errorf("p=%v: init delay %v, analytic %v", p, res.MeanInitDelay, want)
		}
		if res.MeanInitDelay > 0.25 {
			t.Errorf("p=%v: init delay %v not negligible", p, res.MeanInitDelay)
		}
	}
}

// TestCutThroughBeatsStoreAndForward compares mean latency with identical
// traffic: cut-through must save nearly a full cell time at light load.
func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	const ports = 4
	run := func(cut bool) RunResult {
		s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 64, CutThrough: cut})
		cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: 0.2, Seed: 41}, s.Config().Stages)
		res, err := RunTraffic(s, cs, 100_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	ct, sf := run(true), run(false)
	k := float64(2 * ports)
	saved := sf.MeanCutLatency - ct.MeanCutLatency
	if saved < 0.8*k {
		t.Fatalf("cut-through saves only %.2f cycles, want ≈%v", saved, k)
	}
	if ct.MinCutLatency != 2 {
		t.Fatalf("min cut-through latency %d, want 2", ct.MinCutLatency)
	}
}

// TestTailNeverBeforeArrival: the §3.3 safety argument — "transmission of
// the packet's tail will only be attempted after that tail has arrived".
func TestTailNeverBeforeArrival(t *testing.T) {
	const ports = 4
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 64, CutThrough: true})
	k := s.Config().Stages
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 51}, k)
	heads := make([]int, ports)
	var seq uint64
	hc := make([]*cell.Cell, ports)
	for c := int64(0); c < 20_000; c++ {
		cs.Heads(heads)
		for i := range hc {
			hc[i] = nil
			if heads[i] != traffic.NoArrival {
				seq++
				hc[i] = cell.New(seq, i, heads[i], k, 16)
			}
		}
		s.Tick(hc)
		for _, d := range s.Drain() {
			tailIn := d.HeadIn + int64(k) - 1
			if d.TailOut <= tailIn {
				t.Fatalf("tail transmitted at %d but arrived at %d", d.TailOut, tailIn)
			}
			if d.HeadOut <= d.HeadIn {
				t.Fatalf("head out %d not after head in %d", d.HeadOut, d.HeadIn)
			}
		}
	}
}

// TestPerOutputFIFOOrder: cells to the same output must depart in
// write-initiation order (the per-output descriptor queues are FIFO).
func TestPerOutputFIFOOrder(t *testing.T) {
	const ports = 4
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 64, CutThrough: true})
	k := s.Config().Stages
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: ports, Seed: 61}, k)
	heads := make([]int, ports)
	var seq uint64
	hc := make([]*cell.Cell, ports)
	lastHeadIn := make([]int64, ports)
	for i := range lastHeadIn {
		lastHeadIn[i] = -1
	}
	for c := int64(0); c < 20_000; c++ {
		cs.Heads(heads)
		for i := range hc {
			hc[i] = nil
			if heads[i] != traffic.NoArrival {
				seq++
				hc[i] = cell.New(seq, i, heads[i], k, 16)
			}
		}
		s.Tick(hc)
		for _, d := range s.Drain() {
			// Departures per output are naturally ordered by HeadOut;
			// check arrival order is respected per (input,output) pair
			// at least: a later head from the same input to the same
			// output must not depart before an earlier one.
			_ = d
		}
	}
	// Stronger check: run a deterministic scenario. Three cells from
	// input 0 to output 1 must depart in order.
	s2 := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k2 := s2.Config().Stages
	var out []uint64
	for c, next := int64(0), 0; c < 100; c++ {
		var hs []*cell.Cell
		if next < 3 && c == int64(next*k2) {
			hs = []*cell.Cell{cell.New(uint64(next+1), 0, 1, k2, 16), nil}
			next++
		}
		s2.Tick(hs)
		for _, d := range s2.Drain() {
			out = append(out, d.Cell.Seq)
		}
	}
	if len(out) != 3 || out[0] != 1 || out[1] != 2 || out[2] != 3 {
		t.Fatalf("departure order %v, want [1 2 3]", out)
	}
}

// TestIntegrityQuick is a property-based sweep over switch geometry.
func TestIntegrityQuick(t *testing.T) {
	f := func(seed uint64, portsRaw, loadRaw uint8) bool {
		ports := 2 + int(portsRaw%7)
		load := 0.1 + float64(loadRaw%90)/100
		cfg := Config{Ports: ports, WordBits: 16, Cells: 32, CutThrough: seed%2 == 0}
		s, err := New(cfg)
		if err != nil {
			return false
		}
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: load, Seed: seed}, s.Config().Stages)
		if err != nil {
			return false
		}
		res, err := RunTraffic(s, cs, 3_000)
		return err == nil && res.Corrupt == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestDeterminism: identical configuration and seed must give identical
// results (no hidden nondeterminism in the RTL model).
func TestDeterminism(t *testing.T) {
	run := func() RunResult {
		s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true})
		cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.8, Seed: 111}, s.Config().Stages)
		res, err := RunTraffic(s, cs, 10_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("nondeterministic results:\n%v\n%v", a, b)
	}
}

// TestReadPriorityAblation: inverting read priority must not corrupt
// data; it may cost utilization (the documented reason for the default).
func TestReadPriorityAblation(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 64, CutThrough: true, NoReadPriority: true})
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 121}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Corrupt != 0 {
		t.Fatalf("%d corrupt cells with write priority", res.Corrupt)
	}
}

// TestMidCellInjectionPanics: injecting a head while a cell is still
// arriving is a driver bug and must be caught.
func TestMidCellInjectionPanics(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	s.Tick([]*cell.Cell{cell.New(1, 0, 1, k, 16), nil})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Tick([]*cell.Cell{cell.New(2, 0, 1, k, 16), nil})
}

// TestWrongCellSizePanics: cells must be exactly K words.
func TestWrongCellSizePanics(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Tick([]*cell.Cell{cell.New(1, 0, 1, 3, 16), nil})
}

func TestTraceEventString(t *testing.T) {
	e := TraceEvent{
		Cycle:    12,
		Ctrl:     []Op{{Kind: OpWrite, In: 1, Addr: 3}, {Kind: OpRead, Out: 0, Addr: 2}, {}, {}},
		InLatch:  []int{0, 2},
		OutDrive: []int{-1, 0, -1, -1},
	}
	got := e.String()
	for _, want := range []string{"c=12", "W(in1,a3)", "R(out0,a2)", "0:h", "1:2", "M1→0"} {
		if !contains(got, want) {
			t.Fatalf("trace line %q missing %q", got, want)
		}
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// TestLatencyModelUnderLoad sanity-checks mean cut-through latency against
// the output-queueing form: at load p the mean head latency should be
// ≈ 2 (pipeline) + K·W where W is the per-cell queueing wait of an
// output-queued switch ([KaHM87] eq. 14) — the paper's claim that shared
// buffering attains output-queueing performance.
func TestLatencyModelUnderLoad(t *testing.T) {
	const ports = 8
	const p = 0.6
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 512, CutThrough: true})
	k := float64(s.Config().Stages)
	cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: p, Seed: 131}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 500_000)
	if err != nil {
		t.Fatal(err)
	}
	want := 2 + k*analytic.OutputQueueWait(ports, p)
	if math.Abs(res.MeanCutLatency-want)/want > 0.25 {
		t.Errorf("mean latency %v cycles, output-queueing model %v", res.MeanCutLatency, want)
	}
}

func BenchmarkTickSaturated8x8(b *testing.B) {
	s, err := New(Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true})
	if err != nil {
		b.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 1}, s.Config().Stages)
	if err != nil {
		b.Fatal(err)
	}
	heads := make([]int, 8)
	hc := make([]*cell.Cell, 8)
	var seq uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cs.Heads(heads)
		for j := range hc {
			hc[j] = nil
			if heads[j] != traffic.NoArrival {
				seq++
				hc[j] = cell.New(seq, j, heads[j], s.Config().Stages, 16)
			}
		}
		s.Tick(hc)
		s.Drain()
	}
}

// TestOccupancyMatchesQueueingTheory: in store-and-forward mode every
// cell resides in the buffer for its queueing wait plus one cell time, so
// the time-average occupancy approaches the closed form n·p·(W+1) =
// analytic.SharedBufferOccupancy — a cross-check between the
// cycle-accurate RTL and the [KaHM87]-style queueing model.
func TestOccupancyMatchesQueueingTheory(t *testing.T) {
	const ports, p = 8, 0.6
	s := mustSwitch(t, Config{Ports: ports, WordBits: 16, Cells: 1024, CutThrough: false})
	cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: ports, Load: p, Seed: 141}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 600_000)
	if err != nil {
		t.Fatal(err)
	}
	want := analytic.SharedBufferOccupancy(ports, p)
	if math.Abs(res.MeanBuffered-want)/want > 0.15 {
		t.Errorf("mean occupancy %v cells, queueing theory %v", res.MeanBuffered, want)
	}
}
