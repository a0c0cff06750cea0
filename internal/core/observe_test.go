package core

import (
	"encoding/json"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// observedRun drives a switch with an observer and a capture-everything
// MemSink (sampling 1) and returns both the run result and the plumbing.
func observedRun(t *testing.T, cfg Config, tcfg traffic.Config, cycles int64) (RunResult, *Observer, *obs.MemSink, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	o := NewObserver(reg, cfg.Ports)
	sink := &obs.MemSink{}
	o.Tracer = obs.NewTracer(sink, 0, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.SetObserver(o)
	cs, err := traffic.NewCellStream(tcfg, s.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraffic(s, cs, cycles)
	if err != nil {
		t.Fatal(err)
	}
	return res, o, sink, reg
}

// TestObserverReconciles checks the metric stream against the run result:
// the observability layer must agree with the simulator's own accounting,
// or the exported numbers are lies.
func TestObserverReconciles(t *testing.T) {
	res, o, sink, reg := observedRun(t,
		Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		traffic.Config{Kind: traffic.Bernoulli, N: 8, Load: 0.8, Seed: 11},
		20_000)

	if res.Delivered == 0 {
		t.Fatal("no traffic delivered; test is vacuous")
	}
	if got := o.Delivered.Value(); got != res.Delivered {
		t.Errorf("Delivered counter = %d, run delivered %d", got, res.Delivered)
	}
	// Every departure was started by exactly one read or write-through
	// wave, and after the drain every started wave has departed.
	if got := o.ReadWaves.Value() + o.CutThroughs.Value(); got != res.Delivered {
		t.Errorf("read+cut-through waves = %d, delivered %d", got, res.Delivered)
	}
	// Every accepted cell obtained exactly one write or write-through wave.
	if got, want := o.WriteWaves.Value()+o.CutThroughs.Value(), res.Offered-res.Dropped; got != want {
		t.Errorf("write+cut-through waves = %d, accepted %d", got, want)
	}
	if got := o.DropOverrun.Value() + o.DropPolicy.Value() + o.DropPushOut.Value(); got != res.Dropped {
		t.Errorf("drop counters = %d, run dropped %d", got, res.Dropped)
	}
	// The latency histogram saw every departure, and its mean matches.
	if got := o.CutLatency.Count(); got != res.Delivered {
		t.Errorf("latency histogram count = %d, delivered %d", got, res.Delivered)
	}
	mean := float64(o.CutLatency.Sum()) / float64(o.CutLatency.Count())
	if diff := mean - res.MeanCutLatency; diff > 0.01 || diff < -0.01 {
		t.Errorf("histogram mean latency %.3f, run mean %.3f", mean, res.MeanCutLatency)
	}
	// The observer samples occupancy at arbitration time (mid-Tick, after
	// a possible dequeue), the runner after the full Tick — so the
	// high-water mark can only trail the runner's peak, never exceed it.
	if hw := o.HighWater.Value(); hw <= 0 || hw > int64(res.MaxBuffered) {
		t.Errorf("high-water mark %d outside (0, %d]", hw, res.MaxBuffered)
	}
	// At sampling 1 the event stream carries one record per wave/departure.
	if got := sink.Count(obs.EvWaveEnd); int64(got) != res.Delivered {
		t.Errorf("wave-end events = %d, delivered %d", got, res.Delivered)
	}
	if got := sink.Count(obs.EvWriteWave); int64(got) != o.WriteWaves.Value() {
		t.Errorf("write-wave events = %d, counter %d", got, o.WriteWaves.Value())
	}
	if got := sink.Count(obs.EvReadWave); int64(got) != o.ReadWaves.Value() {
		t.Errorf("read-wave events = %d, counter %d", got, o.ReadWaves.Value())
	}
	if got := sink.Count(obs.EvCutThrough); int64(got) != o.CutThroughs.Value() {
		t.Errorf("cut-through events = %d, counter %d", got, o.CutThroughs.Value())
	}
	// The registry snapshot exposes the same numbers under the canonical
	// names — the exporter surface the cmd tools print.
	snap := reg.Snapshot()
	if snap.Counters["pipemem_delivered_total"] != res.Delivered {
		t.Errorf("snapshot delivered = %d, want %d", snap.Counters["pipemem_delivered_total"], res.Delivered)
	}
	if n := len(snap.GaugeVecs["pipemem_output_queue_depth"]); n != 8 {
		t.Errorf("queue-depth vector has %d slots, want 8", n)
	}
}

// TestObserverCountsDrops forces overrun drops with a tiny buffer under
// saturation and checks the drop counter tracks them.
func TestObserverCountsDrops(t *testing.T) {
	res, o, _, _ := observedRun(t,
		Config{Ports: 4, WordBits: 16, Cells: 6, CutThrough: true},
		traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 3},
		10_000)
	if res.Dropped == 0 {
		t.Fatal("expected drops under saturation with a tiny buffer")
	}
	if got := o.DropOverrun.Value(); got != res.Dropped {
		t.Errorf("DropOverrun = %d, run dropped %d", got, res.Dropped)
	}
	if o.Stalls.Value() == 0 {
		t.Error("expected initiation stalls under saturation")
	}
}

// TestTraceEventJSON checks the fig. 5 record encoder emits valid JSON
// with the expected fields for every op kind.
func TestTraceEventJSON(t *testing.T) {
	e := TraceEvent{
		Cycle: 12,
		Ctrl: []Op{
			{Kind: OpWrite, In: 1, Addr: 3},
			{Kind: OpRead, Out: 0, Addr: 2},
			{Kind: OpWriteThrough, In: 2, Out: 3, Addr: 7},
			{Kind: OpNone},
		},
		InLatch:  []int{0, -1, 2, -1},
		OutDrive: []int{-1, 0, -1, 3},
	}
	data, err := json.Marshal(e)
	if err != nil {
		t.Fatal(err)
	}
	var dec struct {
		Cycle int64 `json:"cycle"`
		Ctrl  []struct {
			Op   string `json:"op"`
			In   *int   `json:"in"`
			Out  *int   `json:"out"`
			Addr *int   `json:"addr"`
		} `json:"ctrl"`
		InLatch  []int `json:"in_latch"`
		OutDrive []int `json:"out_drive"`
	}
	if err := json.Unmarshal(data, &dec); err != nil {
		t.Fatalf("invalid JSON %s: %v", data, err)
	}
	if dec.Cycle != 12 || len(dec.Ctrl) != 4 {
		t.Fatalf("decoded %+v", dec)
	}
	if dec.Ctrl[0].Op != "W" || *dec.Ctrl[0].In != 1 || *dec.Ctrl[0].Addr != 3 {
		t.Errorf("write op decoded as %+v", dec.Ctrl[0])
	}
	if dec.Ctrl[2].Op != "T" || *dec.Ctrl[2].In != 2 || *dec.Ctrl[2].Out != 3 {
		t.Errorf("write-through op decoded as %+v", dec.Ctrl[2])
	}
	if dec.Ctrl[3].In != nil || dec.Ctrl[3].Addr != nil {
		t.Errorf("idle op carries fields: %+v", dec.Ctrl[3])
	}
	if dec.InLatch[2] != 2 || dec.OutDrive[3] != 3 {
		t.Errorf("vectors decoded as %+v", dec)
	}
}

// tickHarness builds the pooled steady-state injection loop the perf
// benchmarks use and returns the per-cycle closure.
func tickHarness(t *testing.T, cfg Config, tcfg traffic.Config, o *Observer) func() {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if o != nil {
		s.SetObserver(o)
	}
	k := s.Config().Stages
	cs, err := traffic.NewCellStream(tcfg, k)
	if err != nil {
		t.Fatal(err)
	}
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

// TestTickZeroAllocDisabled pins the PR's non-negotiable: with no
// observer installed, the steady-state Tick path allocates nothing.
func TestTickZeroAllocDisabled(t *testing.T) {
	cfg := Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	tick := tickHarness(t, cfg,
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, nil)
	for i := 0; i < 4*cfg.Cells; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(2000, tick); allocs != 0 {
		t.Fatalf("disabled-obs Tick allocates %.2f/op, want 0", allocs)
	}
}

// TestTickZeroAllocObserved goes further: even with metrics and the ring
// tracer enabled (no external sink), the Tick path stays allocation-free —
// the pre-registration design means enabling metrics costs atomics, not
// garbage.
func TestTickZeroAllocObserved(t *testing.T) {
	cfg := Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	o := NewObserver(obs.NewRegistry(), cfg.Ports)
	o.Tracer = obs.NewTracer(nil, 0, 1)
	tick := tickHarness(t, cfg,
		traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, o)
	for i := 0; i < 4*cfg.Cells; i++ {
		tick()
	}
	if allocs := testing.AllocsPerRun(2000, tick); allocs != 0 {
		t.Fatalf("metrics-enabled Tick allocates %.2f/op, want 0", allocs)
	}
}

// TestHighWaterCountsFromInstall installs an observer on a loaded switch,
// at each phase of its output's cell time, that only drains from then on:
// the peak it reports is the occupancy of the first cycle it watched, the
// buffer after that cycle's arbitration — not zero, and not the level
// before the install, from which that cycle's read wave may already have
// taken a cell.
func TestHighWaterCountsFromInstall(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true}
	// loaded drives a hotspot backlog into the buffer, lets every waiting
	// arrival in, idles at more cycles, and installs an observer.
	loaded := func(at int) (*Switch, *Observer, int) {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		k := s.Config().Stages
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.95, HotFrac: 1, Seed: 1}, k)
		if err != nil {
			t.Fatal(err)
		}
		heads := make([]int, cfg.Ports)
		hc := make([]*cell.Cell, cfg.Ports)
		var seq uint64
		for c := 0; c < 400; c++ {
			cs.Heads(heads)
			for i := range hc {
				hc[i] = nil
				if heads[i] != traffic.NoArrival {
					seq++
					hc[i] = cell.New(seq, i, heads[i], k, cfg.WordBits)
				}
			}
			s.Tick(hc)
			s.Drain()
		}
		for s.pendingWrites > 0 || at > 0 {
			if s.pendingWrites == 0 {
				at--
			}
			s.Tick(nil)
			s.Drain()
		}
		before := s.Buffered()
		o := NewObserver(obs.NewRegistry(), cfg.Ports)
		s.SetObserver(o)
		s.SyncObserver()
		if hw := o.HighWater.Value(); hw != 0 {
			t.Fatalf("high-water %d before the observer watched a cycle", hw)
		}
		return s, o, before
	}
	peak := func(s *Switch, o *Observer) int64 {
		for s.Resident() > 0 {
			s.Tick(nil)
			s.Drain()
		}
		s.SyncObserver()
		return o.HighWater.Value()
	}
	reads := 0
	for at := 0; at < 2*cfg.Ports*2; at++ {
		s, o, before := loaded(at)
		s.Tick(nil)
		first := s.Buffered()
		if first < before {
			reads++
		}
		if hw := peak(s, o); hw != int64(first) {
			t.Fatalf("install %d cycles on: high-water %d, want %d (the buffer after the first watched cycle)", at, hw, first)
		}
	}
	if reads == 0 {
		t.Fatal("no install fell before a read wave; the test pins nothing")
	}
}
