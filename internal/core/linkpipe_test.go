package core

import (
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// TestLinkPipelineLatencyShift verifies §4.3's first optimization
// end-to-end: splitting the link wires into R pipeline stages each delays
// every cell by exactly 2R cycles and changes nothing else — "the logic
// of the switch operation remains unaffected".
func TestLinkPipelineLatencyShift(t *testing.T) {
	for _, r := range []int{1, 2, 4} {
		base := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
		piped := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true, LinkPipeline: r})
		k := base.Config().Stages
		run := func(s *Switch) Departure {
			s.Tick([]*cell.Cell{cell.New(1, 0, 1, k, 16), nil})
			for i := 0; i < 6*(k+r); i++ {
				s.Tick(nil)
			}
			deps := s.Drain()
			if len(deps) != 1 {
				t.Fatalf("R=%d: %d departures", r, len(deps))
			}
			return deps[0]
		}
		db, dp := run(base), run(piped)
		if !dp.Cell.Equal(dp.Expected) {
			t.Fatalf("R=%d: corruption through pipelined links", r)
		}
		baseLat := db.HeadOut - db.HeadIn
		pipeLat := dp.HeadOut - dp.HeadIn
		if pipeLat != baseLat+int64(2*r) {
			t.Fatalf("R=%d: latency %d, want base %d + 2R = %d", r, pipeLat, baseLat, baseLat+int64(2*r))
		}
		if dp.TailOut-dp.HeadOut != db.TailOut-db.HeadOut {
			t.Fatalf("R=%d: transmission duration changed", r)
		}
	}
}

// TestLinkPipelineFullLoad: the option must not disturb full-rate
// operation — same utilization, zero drops, conservation intact.
func TestLinkPipelineFullLoad(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true, LinkPipeline: 3})
	cs := stream(t, traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 17}, s.Config().Stages)
	res, err := RunTraffic(s, cs, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Dropped != 0 || res.Corrupt != 0 {
		t.Fatalf("drops=%d corrupt=%d with link pipelining", res.Dropped, res.Corrupt)
	}
	if res.Utilization < 0.98 {
		t.Fatalf("utilization %v", res.Utilization)
	}
}

// TestLinkPipelineRandomTrafficIntegrity sweeps loads.
func TestLinkPipelineRandomTrafficIntegrity(t *testing.T) {
	for _, load := range []float64{0.3, 0.8} {
		s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 64, CutThrough: true, LinkPipeline: 2})
		cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: load, Seed: 19}, s.Config().Stages)
		res, err := RunTraffic(s, cs, 20_000)
		if err != nil {
			t.Fatalf("load %v: %v", load, err)
		}
		if res.Corrupt != 0 || res.Delivered == 0 {
			t.Fatalf("load %v: delivered=%d corrupt=%d", load, res.Delivered, res.Corrupt)
		}
	}
}

// TestNegativeLinkPipelineRejected.
func TestNegativeLinkPipelineRejected(t *testing.T) {
	if err := (Config{Ports: 4, LinkPipeline: -1}).Validate(); err == nil {
		t.Fatal("negative link pipelining accepted")
	}
}

// TestTransmitCellHook: the hook fires once per departure, with the right
// cell and a start cycle consistent with the head appearing on the link
// one cycle later.
func TestTransmitCellHook(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 2, WordBits: 16, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	type ev struct {
		out   int
		seq   uint64
		start int64
	}
	var events []ev
	s.SetTransmitCellHook(func(out int, c *cell.Cell, startCycle int64) {
		events = append(events, ev{out, c.Seq, startCycle})
	})
	s.Tick([]*cell.Cell{cell.New(9, 0, 1, k, 16), nil})
	for i := 0; i < 4*k; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 1 || len(events) != 1 {
		t.Fatalf("deps=%d events=%d, want 1/1", len(deps), len(events))
	}
	if events[0].seq != 9 || events[0].out != 1 {
		t.Fatalf("hook saw %+v", events[0])
	}
	if deps[0].HeadOut != events[0].start+1 {
		t.Fatalf("head on link at %d, hook start %d (want start+1)", deps[0].HeadOut, events[0].start)
	}
}

// TestLinkPipelineConservation drives a pipelined-link switch through
// saturation overload and a full drain, checking on every cycle that
// cells crossing the §4.3 delay line are neither lost nor double-counted:
// delayCount matches the cells actually sitting in the line, and
// offered == delivered + dropped + Resident() holds at every instant.
func TestLinkPipelineConservation(t *testing.T) {
	const (
		n      = 4
		r      = 3
		driven = 2000
	)
	s := mustSwitch(t, Config{Ports: n, WordBits: 16, Cells: 12, CutThrough: true, LinkPipeline: r})
	k := s.Config().Stages
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 21}, k)

	heads := make([]int, n)
	hcells := make([]*cell.Cell, n)
	var seq uint64
	var offered, delivered int64
	check := func(c int) {
		t.Helper()
		inLine := 0
		for _, slot := range s.inDelay {
			for _, h := range slot {
				if h != nil {
					inLine++
				}
			}
		}
		if inLine != s.delayCount {
			t.Fatalf("cycle %d: delayCount %d, but %d cells in the delay line", c, s.delayCount, inLine)
		}
		dropped := s.counts.DropOverrun
		if got := delivered + dropped + int64(s.Resident()); got != offered {
			t.Fatalf("cycle %d: conservation violated: offered %d != delivered %d + dropped %d + resident %d",
				c, offered, delivered, dropped, s.Resident())
		}
	}

	for c := 0; c < driven; c++ {
		cs.Heads(heads)
		for i := range hcells {
			hcells[i] = nil
			if heads[i] != traffic.NoArrival {
				seq++
				hcells[i] = cell.New(seq, i, heads[i], k, 16)
				offered++
			}
		}
		s.Tick(hcells)
		delivered += int64(len(s.Drain()))
		check(c)
	}
	for c := 0; s.Resident() > 0 && c < (12+2)*k*4; c++ {
		s.Tick(nil)
		delivered += int64(len(s.Drain()))
		check(driven + c)
	}
	if s.Resident() != 0 {
		t.Fatalf("%d cells still resident after drain", s.Resident())
	}
	if s.delayCount != 0 {
		t.Fatalf("delay line not empty after drain: delayCount %d", s.delayCount)
	}
	dropped := s.counts.DropOverrun
	if delivered == 0 || dropped == 0 {
		t.Fatalf("overload scenario too weak: delivered %d, dropped %d", delivered, dropped)
	}
}
