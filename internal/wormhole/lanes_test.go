package wormhole

import (
	"testing"
)

func mustLanes(t *testing.T, cfg LaneConfig) *LaneNet {
	t.Helper()
	w, err := NewLanes(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestLaneValidate(t *testing.T) {
	good := LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 4, Saturate: true}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for i, c := range []LaneConfig{
		{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 0, Saturate: true},
		{Terminals: 16, BufferFlits: 4, MsgFlits: 20, Lanes: 8, Saturate: true},
		{Terminals: 3, BufferFlits: 16, MsgFlits: 20, Lanes: 2, Saturate: true},
	} {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

// TestLaneDeliveryCorrectness: the built-in order/destination checks must
// hold under load (Step errors otherwise).
func TestLaneDeliveryCorrectness(t *testing.T) {
	w := mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 4, Load: 0.3, Seed: 3})
	for i := 0; i < 50_000; i++ {
		if err := w.Step(); err != nil {
			t.Fatalf("cycle %d: %v", i, err)
		}
	}
	if w.Delivered() == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestLanesLiftSaturation reproduces the other half of [Dally90, fig. 8]:
// at the quoted operating point (20-flit messages, 16 buffer flits per
// input) adding lanes raises saturation throughput substantially at
// constant total storage.
func TestLanesLiftSaturation(t *testing.T) {
	thr := map[int]float64{}
	for _, lanes := range []int{1, 2, 4} {
		w := mustLanes(t, LaneConfig{Terminals: 64, BufferFlits: 16, MsgFlits: 20, Lanes: lanes, Saturate: true, Seed: 7})
		res, err := Run(w, 20_000, 60_000)
		if err != nil {
			t.Fatal(err)
		}
		thr[lanes] = res.Throughput
	}
	if thr[2] <= thr[1]*1.05 {
		t.Fatalf("2 lanes (%.3f) not clearly above 1 lane (%.3f)", thr[2], thr[1])
	}
	if thr[4] <= thr[2] {
		t.Fatalf("4 lanes (%.3f) not above 2 lanes (%.3f)", thr[4], thr[2])
	}
}

// TestSingleLaneMatchesBaseModel: with one lane, the lane model's
// saturation sits near the base model's (the arbitration details differ
// slightly, so allow a band).
func TestSingleLaneMatchesBaseModel(t *testing.T) {
	lw := mustLanes(t, LaneConfig{Terminals: 64, BufferFlits: 16, MsgFlits: 20, Lanes: 1, Saturate: true, Seed: 9})
	lres, err := Run(lw, 20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	bw := mustNet(t, Config{Terminals: 64, BufferFlits: 16, MsgFlits: 20, Saturate: true, Seed: 9})
	bres, err := Run(bw, 20_000, 60_000)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := bres.Throughput*0.8, bres.Throughput*1.25
	if lres.Throughput < lo || lres.Throughput > hi {
		t.Fatalf("1-lane model %.3f outside [%.3f, %.3f] of base model %.3f",
			lres.Throughput, lo, hi, bres.Throughput)
	}
}

// TestLaneLowLoadCarriesOffered.
func TestLaneLowLoadCarriesOffered(t *testing.T) {
	w := mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 20, Lanes: 2, Load: 0.1, Seed: 11})
	res, err := Run(w, 30_000, 100_000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput < 0.09 || res.Throughput > 0.11 {
		t.Fatalf("throughput %v at offered 0.1", res.Throughput)
	}
}

// TestLaneDeterminism.
func TestLaneDeterminism(t *testing.T) {
	run := func() Result {
		w := mustLanes(t, LaneConfig{Terminals: 16, BufferFlits: 16, MsgFlits: 10, Lanes: 2, Load: 0.3, Seed: 13})
		res, err := Run(w, 5_000, 20_000)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %+v vs %+v", a, b)
	}
}
