package core

// Regression tests for three bugs fixed together with the hot-path
// overhaul: the utilization metric exceeding 1.0 on short runs, the
// missing range check in SetVCWeights, and silent cut-latency histogram
// truncation.

import (
	"encoding/json"
	"errors"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/traffic"
)

// TestUtilizationBounded: utilization used to normalize link activity by
// driven cycles only, so deliveries completing during the drain tail could
// push the ratio past 1.0 on short windows. The fraction of output-link
// cycles carrying data can never exceed 1.
func TestUtilizationBounded(t *testing.T) {
	const (
		n      = 4
		cycles = 12 // shorter than one cell time: most words drain after
	)
	s := mustSwitch(t, Config{Ports: n, WordBits: 16, Cells: 64, CutThrough: true})
	k := s.Config().Stages
	cs := stream(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 5}, k)
	res, err := RunTraffic(s, cs, cycles)
	if err != nil {
		t.Fatal(err)
	}
	// Guard that the scenario still exercises the bug: under the old
	// normalization (delivered words over driven cycles) this run reads
	// as more than 100% busy.
	if old := float64(res.Delivered*int64(k)) / float64(cycles*n); old <= 1.0 {
		t.Fatalf("scenario no longer regressive: old-formula utilization %.3f", old)
	}
	if res.Utilization > 1.0 {
		t.Fatalf("utilization %v > 1.0", res.Utilization)
	}
	if res.Utilization <= 0 {
		t.Fatalf("utilization %v, want positive", res.Utilization)
	}
}

// TestSetVCWeightsRange: an out-of-range output index must be rejected
// with ErrBadConfig (it used to index s.vcWeights out of bounds or, when
// the slice was unallocated, silently misconfigure).
func TestSetVCWeightsRange(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true, VCs: 2})
	for _, out := range []int{-1, 4, 99} {
		err := s.SetVCWeights(out, []int{1, 1})
		if !errors.Is(err, ErrBadConfig) {
			t.Fatalf("out=%d: got %v, want ErrBadConfig", out, err)
		}
		// Clearing weights must be range-checked the same way.
		if err := s.SetVCWeights(out, nil); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("out=%d, nil weights: got %v, want ErrBadConfig", out, err)
		}
	}
	// A weight vector of the wrong length or with a weight below 1 is the
	// same class of error and carries the same sentinel.
	for _, weights := range [][]int{{1, 1, 1}, {2, 0}} {
		if err := s.SetVCWeights(3, weights); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("weights %v: got %v, want ErrBadConfig", weights, err)
		}
	}
	if err := s.SetVCWeights(3, []int{2, 1}); err != nil {
		t.Fatalf("valid output rejected: %v", err)
	}
}

// TestCutLatencyOverflowSurfaced: head latencies beyond the histogram's
// resolved range used to vanish from every report. They must now be
// counted in RunResult.CutLatencyOverflow and flagged by String().
func TestCutLatencyOverflowSurfaced(t *testing.T) {
	// An all-to-one trace with a deep buffer: the hot output's queue fills
	// to ~Cells, so the deepest queued cells wait ≈ Cells·k cycles — far
	// past the 4096-cycle histogram limit.
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 600, CutThrough: true})
	k := s.Config().Stages
	const slots = 400
	sched := make([][]int, slots)
	for i := range sched {
		sched[i] = []int{0, 0, 0, 0}
	}
	cs := stream(t, traffic.Config{Kind: traffic.Trace, N: 4, Schedule: sched}, k)
	res, err := RunTraffic(s, cs, int64(slots*k))
	if err != nil {
		t.Fatal(err)
	}
	if res.CutLatencyOverflow == 0 {
		t.Fatalf("no overflow surfaced; max buffered %d, mean latency %.0f",
			res.MaxBuffered, res.MeanCutLatency)
	}
	if !strings.Contains(res.String(), "cutlat-overflow=") {
		t.Fatalf("String() hides the overflow: %s", res)
	}
	// The mean still accounts for the overflowed samples' true magnitude.
	if res.MeanCutLatency <= 0 {
		t.Fatalf("mean cut latency %v", res.MeanCutLatency)
	}
}

// TestZeroCycleRunMarshals: a run over an empty window used to report its
// mean occupancy as 0/0, and encoding/json refuses to marshal a NaN — a
// session asked for zero cycles could not serve its own result.
func TestZeroCycleRunMarshals(t *testing.T) {
	s, err := New(Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.5, Seed: 1}, s.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunTraffic(s, cs, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.MeanBuffered != 0 {
		t.Fatalf("MeanBuffered = %v over an empty window, want 0", res.MeanBuffered)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("result of a zero-cycle run does not marshal: %v", err)
	}
	var back RunResult
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, res) {
		t.Fatalf("round trip changed the result:\n got  %+v\n want %+v", back, res)
	}
}
