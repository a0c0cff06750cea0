package core

import (
	"fmt"
	"hash/fnv"
	"slices"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// TestPerStageEngineSingleSlot pins the per-stage engine's link side under
// everything that keeps a switch off the batched path: a fired per-stage
// seam (forceExact), an ECC dirty window, an active bypass. An outgoing link carries one cell at a
// time — its booking lasts k cycles and the k-th word is driven before the
// next arbitration — so at every cycle boundary each output holds at most
// one egress record, on either engine. Each case drives saturated traffic
// and checks, every cycle, that slot census and AuditInvariants; at the
// first boundary where a record holds 0 < words < k it forks a twin from a
// JSON-round-tripped snapshot, and the twin must then log the same
// departures as the uninterrupted run. The whole departure log is pinned by
// digest.
func TestPerStageEngineSingleSlot(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		// forced pins the run to the per-stage engine from cycle 0; the latch
		// rides in the snapshot, so the twin inherits it.
		forced bool
		// before runs ahead of every Tick, on the reference and on the twin.
		before func(h *ticknHarness)
		// engines: whether the run must visit the batched engine at all.
		wantFast bool
		golden   uint64
		deps     int
	}{
		{
			name:   "forced/ct",
			cfg:    Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true},
			forced: true,
			golden: 0xcab88c4888921e67, deps: 714,
		},
		{
			name:   "forced/sf",
			cfg:    Config{Ports: 4, WordBits: 16, Cells: 16},
			forced: true,
			golden: 0xd1a6a029a2e734d0, deps: 696,
		},
		{
			// An upset every 97 cycles: the switch leaves the batched engine
			// for a dirty window and returns once a wave has scrubbed it.
			name: "ecc-window/sf",
			cfg:  Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true},
			before: func(h *ticknHarness) {
				if c := h.sw.Cycle(); c%97 == 60 {
					h.fire([]faultAt{{cycle: c, stage: int(c) % h.sw.k, addr: -1, mask: 0x0040}})
				}
			},
			wantFast: true,
			golden:   0xd1a6a029a2e734d0, deps: 696,
		},
		{
			// A bank mapped out mid-run: half capacity, two-cycle initiation
			// cadence, every word through the redirect table from then on.
			name: "bypass/ct",
			cfg:  Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true, BypassThreshold: 3, CutThrough: true},
			before: func(h *ticknHarness) {
				if h.sw.Cycle() == 300 {
					if err := h.sw.MapOutStage(2); err != nil {
						h.t.Fatal(err)
					}
				}
			},
			wantFast: true,
			golden:   0xb6a5ea393bcd5432, deps: 531,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ref := newTicknHarness(t, tc.cfg, "")
			if tc.forced {
				ref.sw.forceExact()
			}
			k := ref.sw.k
			const cycles = 1500
			sched := genSchedule(t, traffic.Config{Kind: traffic.Saturation, N: tc.cfg.Ports, Seed: 31}, k, cycles)
			var twin *ticknHarness
			forkLog, forkCycle := 0, int64(-1)
			sawFast, sawExact := false, false
			for c := int64(0); c < cycles+int64(4*k*tc.cfg.Cells); c++ {
				for _, h := range []*ticknHarness{ref, twin} {
					if h == nil {
						continue
					}
					if tc.before != nil {
						tc.before(h)
					}
					h.sw.Tick(h.materialize(rowAt(sched, c)))
					h.collect()
					if err := h.sw.AuditInvariants(); err != nil {
						t.Fatalf("cycle %d (fast=%v): %v", c, h.sw.fastMode, err)
					}
				}
				if ref.sw.fastMode {
					sawFast = true
				} else {
					sawExact = true
				}
				st, err := ref.sw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				partial := false
				for o, recs := range st.Egress {
					if len(recs) > 1 {
						t.Fatalf("cycle %d (fast=%v): output %d holds %d egress records", c, ref.sw.fastMode, o, len(recs))
					}
					if len(recs) == 1 && len(recs[0].Words) > 0 && len(recs[0].Words) < k {
						partial = true
					}
				}
				if twin == nil && partial && c > cycles/3 {
					s, err := NewFromSnapshot(mustJSONRoundTrip(t, st))
					if err != nil {
						t.Fatalf("cycle %d: restore: %v", c, err)
					}
					twin = &ticknHarness{t: t, sw: s, seq: ref.seq, hc: make([]*cell.Cell, tc.cfg.Ports)}
					forkLog, forkCycle = len(ref.log), c
				}
			}
			if !sawExact || sawFast != tc.wantFast {
				t.Fatalf("engines visited: per-stage %v, batched %v (want batched %v)", sawExact, sawFast, tc.wantFast)
			}
			if hl := ref.sw.Health(); tc.cfg.ECC && !hl.Degraded && hl.ECCCorrected == 0 {
				t.Fatal("no upset was ever corrected: the dirty windows never opened")
			}
			if twin == nil {
				t.Fatal("no boundary with a partly transmitted egress record: the restore leg never ran")
			}
			if !ref.sw.Quiescent() || !twin.sw.Quiescent() {
				t.Fatal("switch not drained by the end of the tail")
			}
			if got, want := twin.log, ref.log[forkLog:]; !slices.Equal(got, want) {
				t.Fatalf("twin restored after cycle %d diverged: %d departures, uninterrupted run %d", forkCycle, len(got), len(want))
			}
			h := fnv.New64a()
			for _, line := range ref.log {
				fmt.Fprintln(h, line)
			}
			if got := h.Sum64(); got != tc.golden || len(ref.log) != tc.deps {
				t.Fatalf("digest %#x over %d departures; golden %#x over %d", got, len(ref.log), tc.golden, tc.deps)
			}
		})
	}
}
