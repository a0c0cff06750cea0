package core

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/traffic"
)

// TestRunEqualsRunTraffic checks the Runner against the plain loop: on a
// *Switch, Run and RunTraffic return the same RunResult field for field —
// loss-mode breakdown, per-port tallies and initiation delay included —
// under every admission policy, both forwarding modes, direct and
// pipelined links.
func TestRunEqualsRunTraffic(t *testing.T) {
	const n, cycles = 4, 3000
	kinds := []traffic.Config{
		{Kind: traffic.Bernoulli, N: n, Load: 0.8, Seed: 31},
		{Kind: traffic.Hotspot, N: n, Load: 0.9, HotFrac: 0.5, Seed: 37},
		{Kind: traffic.Saturation, N: n, Seed: 41},
	}
	for _, spec := range append([]string{""}, bufmgr.Specs()...) {
		for _, ct := range []bool{true, false} {
			for _, lp := range []int{0, 2} {
				for _, tc := range kinds {
					name := fmt.Sprintf("policy=%q/ct=%v/lp=%d/%v", spec, ct, lp, tc.Kind)
					cfg := Config{Ports: n, WordBits: 16, Cells: 12, CutThrough: ct, LinkPipeline: lp}
					run := func(drive func(*Switch, *traffic.CellStream, int64) (RunResult, error)) RunResult {
						s := mustSwitch(t, cfg)
						if spec != "" {
							pol, err := bufmgr.Parse(spec)
							if err != nil {
								t.Fatal(err)
							}
							s.SetBufferPolicy(pol)
						}
						res, err := drive(s, stream(t, tc, s.Config().Stages), cycles)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						return res
					}
					plain := run(func(s *Switch, cs *traffic.CellStream, c int64) (RunResult, error) { return Run(s, cs, c) })
					stepped := run(RunTraffic)
					if !reflect.DeepEqual(plain, stepped) {
						t.Errorf("%s:\nRun        %+v\nRunTraffic %+v", name, plain, stepped)
					}
					if plain.Delivered == 0 {
						t.Errorf("%s: nothing delivered", name)
					}
				}
			}
		}
	}
}

// TestRunnerDrainsLinkWires: the drain phase must wait for cells still
// crossing pipelined link wires (§4.3), not only for the buffer and the
// registers. With a 4-deep link and light load, one window length in eight
// used to end the run with a cell on the wire: delivered one short, no
// error.
func TestRunnerDrainsLinkWires(t *testing.T) {
	const n = 4
	for cycles := int64(1000); cycles < 1200; cycles++ {
		s := mustSwitch(t, Config{Ports: n, WordBits: 16, Cells: 32, CutThrough: true, LinkPipeline: 4})
		cs := stream(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.3, Seed: 1}, s.Config().Stages)
		res, err := RunTraffic(s, cs, cycles)
		if err != nil {
			t.Fatalf("window %d: %v", cycles, err)
		}
		if res.Offered != res.Delivered+res.Dropped || s.Resident() != 0 {
			t.Fatalf("window %d: offered %d, delivered %d, dropped %d, %d still resident",
				cycles, res.Offered, res.Delivered, res.Dropped, s.Resident())
		}
	}
}

// flipper is an Organization that corrupts one word of every departure;
// swallower one that loses a departure without counting it. They are why
// the contract is an interface: Run's verdict can be shown to fire.
type flipper struct{ *Switch }

func (f flipper) Drain() []Departure {
	deps := f.Switch.Drain()
	for i := range deps {
		deps[i].Cell.Words[1] ^= 1
	}
	return deps
}

type swallower struct {
	*DualSwitch
	ate bool
}

func (s *swallower) Drain() []Departure {
	deps := s.DualSwitch.Drain()
	if len(deps) > 0 && !s.ate {
		s.ate = true
		return deps[1:]
	}
	return deps
}

func TestRunVerdictFires(t *testing.T) {
	const n = 4
	tc := traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.6, Seed: 9}
	sw := mustSwitch(t, Config{Ports: n, WordBits: 16, Cells: 32, CutThrough: true})
	res, err := Run(flipper{sw}, stream(t, tc, sw.Config().Stages), 2000)
	if err == nil || !strings.Contains(err.Error(), "corrupted cells") || res.Corrupt != res.Delivered {
		t.Errorf("flipped words: err %v, corrupt %d of %d delivered", err, res.Corrupt, res.Delivered)
	}
	d := mustDual(t, Config{Ports: n, WordBits: 16, Cells: 32, CutThrough: true})
	res, err = Run(&swallower{DualSwitch: d}, stream(t, tc, n), 2000)
	if err == nil || !strings.Contains(err.Error(), "conservation violated") || res.Offered != res.Delivered+1 {
		t.Errorf("swallowed cell: err %v, offered %d, delivered %d", err, res.Offered, res.Delivered)
	}
}
