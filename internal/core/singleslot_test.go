package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// TestSingleEgressSlot pins the link side where waves run off the wave
// commit — an ECC dirty window, a stuck bank — and where they do not. An
// outgoing link carries one cell at a time — its booking lasts k cycles and
// the k-th word is on the wire before the next arbitration — so at every
// cycle boundary each output holds at most one egress record. Each case
// drives saturated traffic beside the reference and checks, every cycle, the
// slot census and AuditInvariants; at the first boundary past a third of the
// run where a record is in flight (partly filled, if the case ever leaves
// one) it forks a twin from a JSON-round-tripped snapshot, and the twin must
// then log the same departures as the uninterrupted run. The whole
// departure log is pinned by digest.
func TestSingleEgressSlot(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// before runs ahead of every Tick, on both sides and on the twin.
		before func(s faultSeams, c int64)
		// partial: the run must leave a partly filled record at a boundary.
		partial bool
		golden  uint64
		deps    int
	}{
		{
			name:   "clean/ct",
			cfg:    Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true},
			golden: 0xcab88c4888921e67, deps: 714,
		},
		{
			name:   "clean/sf",
			cfg:    Config{Ports: 4, WordBits: 16, Cells: 16},
			golden: 0xd1a6a029a2e734d0, deps: 696,
		},
		{
			// An upset every 97 cycles, under a wave in flight where there is
			// one.
			name: "ecc-window/sf",
			cfg:  Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true},
			before: func(s faultSeams, c int64) {
				if c%97 != 60 {
					return
				}
				if sw, ok := s.(*Switch); ok {
					eccTargets[c] = underWave(sw, int(c)%8, int(c))
				}
				if a := eccTargets[c]; a >= 0 {
					s.InjectMemoryFault(int(c)%8, a, 0x0040)
				}
			},
			golden: 0xd1a6a029a2e734d0, deps: 696,
		},
		{
			// A bank stuck mid-run: every read from then on runs its stages
			// at their own cycles. (The case keeps the name it had when a
			// stage bypass mapped the bank out.)
			name: "bypass/ct",
			cfg:  Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true, CutThrough: true},
			before: func(s faultSeams, c int64) {
				if c == 300 {
					s.SetStageStuck(2, true)
				}
			},
			partial: true,
			golden:  0xa9744cc0fd134774, deps: 714,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clear(eccTargets)
			l := newLockstep(t, tc.cfg, "")
			k := l.sw.k
			const cycles = 1500
			sched := genSchedule(t, traffic.Config{Kind: traffic.Saturation, N: tc.cfg.Ports, Seed: 31}, k, cycles)
			var twin *ticknHarness
			forkLog, forkCycle, sawPartial, sawOpen := 0, int64(-1), false, false
			for c := int64(0); c < cycles+int64(4*k*tc.cfg.Cells); c++ {
				if tc.before != nil {
					tc.before(l.sw, c)
					tc.before(l.ref, c)
					if twin != nil {
						tc.before(twin.sw, c)
					}
				}
				row := rowAt(sched, c)
				if twin != nil {
					twin.seq = l.seq
					twin.sw.Tick(twin.materialize(row))
					twin.collect()
					if err := twin.sw.AuditInvariants(); err != nil {
						t.Fatalf("cycle %d, twin: %v", c, err)
					}
				}
				l.tick(row)
				sawOpen = sawOpen || l.sw.openN > 0
				if err := l.sw.AuditInvariants(); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				st, err := l.sw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				inFlight, partial := false, false
				for o, recs := range st.Egress {
					if len(recs) > 1 {
						t.Fatalf("cycle %d: output %d holds %d egress records", c, o, len(recs))
					}
					if len(recs) == 1 {
						inFlight = true
						partial = partial || len(recs[0].Words) < k
					}
				}
				sawPartial = sawPartial || partial
				if twin == nil && inFlight && (partial || !tc.partial) && c > cycles/3 {
					s, err := NewFromSnapshot(mustJSONRoundTrip(t, st))
					if err != nil {
						t.Fatalf("cycle %d: restore: %v", c, err)
					}
					twin = &ticknHarness{t: t, sw: s, seq: l.seq, hc: make([]*cell.Cell, tc.cfg.Ports)}
					forkLog, forkCycle = len(l.log), c
				}
			}
			if tc.before != nil && !sawOpen {
				t.Fatal("no wave ever ran off the commit: the faults opened no ring slot")
			}
			if twin == nil || tc.partial && !sawPartial {
				t.Fatalf("no boundary with a record in flight (partial %v): the restore leg never ran", sawPartial)
			}
			if !l.sw.Quiescent() || !twin.sw.Quiescent() {
				t.Fatal("switch not drained by the end of the tail")
			}
			if got, want := twin.log, l.log[forkLog:]; !slices.Equal(got, want) {
				t.Fatalf("twin restored after cycle %d diverged: %d departures, uninterrupted run %d", forkCycle, len(got), len(want))
			}
			h := fnv.New64a()
			for _, line := range l.log {
				fmt.Fprintln(h, line)
			}
			if got := h.Sum64(); got != tc.golden || len(l.log) != tc.deps {
				t.Fatalf("digest %#x over %d departures; golden %#x over %d", got, len(l.log), tc.golden, tc.deps)
			}
		})
	}
}

// eccTargets carries the ecc-window case's upset addresses, picked on the
// switch, to the reference and the twin.
var eccTargets = map[int64]int{}
