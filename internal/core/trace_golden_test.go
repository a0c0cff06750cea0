package core

import (
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"slices"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// traceCase is one busy traced run: geometry, admission policy, optional
// weighted round-robin between two VCs, and the traffic that drives it.
type traceCase struct {
	name    string
	cfg     Config
	pol     string
	weights []int // per-VC WRR weights on every output, nil for plain RR
	tc      traffic.Config
}

// traceCases covers what a fig. 5 trace can show: cut-through and
// store-and-forward, two weighted VCs, the two admission policies that
// drop and evict, pipelined link wires, a sparse run (mostly dead cycles)
// and overloaded ones, at 4×4 and 8×8.
func traceCases() []traceCase {
	return []traceCase{
		{name: "4x4/ct/bern0.6", cfg: Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true},
			tc: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.6, Seed: 3}},
		{name: "4x4/ct/sparse", cfg: Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true},
			tc: traffic.Config{Kind: traffic.Bursty, N: 4, Load: 0.05, BurstLen: 4, Seed: 5}},
		{name: "8x8/sf/sat", cfg: Config{Ports: 8, WordBits: 16, Cells: 32},
			tc: traffic.Config{Kind: traffic.Saturation, N: 8, Seed: 7}},
		{name: "8x8/ct/perm", cfg: Config{Ports: 8, WordBits: 16, Cells: 32, CutThrough: true},
			tc: traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 9}},
		{name: "4x4/ct/vcs2-wrr", cfg: Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true, VCs: 2},
			weights: []int{3, 1},
			tc:      traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: 11}},
		{name: "4x4/sf/dt", cfg: Config{Ports: 4, WordBits: 16, Cells: 16}, pol: "dt:alpha=2",
			tc: traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.95, HotFrac: 0.6, Seed: 13}},
		{name: "4x4/ct/pushout", cfg: Config{Ports: 4, WordBits: 16, Cells: 8, CutThrough: true}, pol: "pushout",
			tc: traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 17}},
		{name: "8x8/ct/linkpipe2", cfg: Config{Ports: 8, WordBits: 16, Cells: 32, CutThrough: true, LinkPipeline: 2},
			tc: traffic.Config{Kind: traffic.Bernoulli, N: 8, Load: 0.8, Seed: 19}},
		{name: "4x4/sf/linkpipe2-sparse", cfg: Config{Ports: 4, WordBits: 16, Cells: 16, LinkPipeline: 2},
			tc: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.05, Seed: 23}},
	}
}

// newTraced builds the case's switch (policy and VC weights installed) on a
// harness; the caller installs whatever tracer it wants.
func (tc traceCase) newTraced(t *testing.T) *ticknHarness {
	t.Helper()
	h := newTicknHarness(t, tc.cfg, tc.pol)
	if tc.weights != nil {
		for o := 0; o < tc.cfg.Ports; o++ {
			if err := h.sw.SetVCWeights(o, tc.weights); err != nil {
				t.Fatal(err)
			}
		}
	}
	return h
}

// vcHeads is ticknHarness.materialize with the cells spread over the
// configured virtual channels.
func (h *ticknHarness) vcHeads(row []int) []*cell.Cell {
	hc := h.materialize(row)
	for _, c := range hc {
		if c != nil {
			c.VC = int(c.Seq) % h.sw.cfg.VCs
		}
	}
	return hc
}

const traceCycles = 2500

// tracedDigests drives the case for traceCycles plus a drain tail with one
// tracer installed from cycle 0, and digests the whole fig. 5 stream two
// ways: the TraceEvent.String lines and the JSONL records. tap is called
// with the switch before the run and returns a further consumer of every
// event (the external golden test's VCD writer).
func tracedDigests(t *testing.T, tc traceCase, tap func(*Switch) func(TraceEvent)) (text, jsonl uint64, events, deps int) {
	t.Helper()
	h := tc.newTraced(t)
	k := h.sw.k
	hs, hj := fnv.New64a(), fnv.New64a()
	also := tap(h.sw)
	var buf []byte
	h.sw.SetTracer(func(e TraceEvent) {
		events++
		fmt.Fprintln(hs, e.String())
		buf = append(e.AppendJSON(buf[:0]), '\n')
		hj.Write(buf)
		also(e)
	})
	sched := genSchedule(t, tc.tc, k, traceCycles)
	for c := int64(0); c < traceCycles+int64(4*k*tc.cfg.Cells); c++ {
		h.sw.Tick(h.vcHeads(rowAt(sched, c)))
		h.collect()
	}
	if !h.sw.Quiescent() {
		t.Fatal("switch not drained by the end of the tail")
	}
	return hs.Sum64(), hj.Sum64(), events, len(h.log)
}

// traceGrid is traceCases plus a grid: {cut-through, store-and-forward} ×
// {plain, 2 VCs, LinkPipeline 2, ECC, dt:alpha=2, pushout} × load 0.05, 0.5
// and 0.95 — 45 configurations.
func traceGrid() []traceCase {
	cases := traceCases()
	variants := []struct {
		name string
		mod  func(tc *traceCase)
	}{
		{"plain", func(*traceCase) {}},
		{"vcs2", func(tc *traceCase) { tc.cfg.VCs = 2 }},
		{"linkpipe2", func(tc *traceCase) { tc.cfg.LinkPipeline = 2 }},
		{"ecc", func(tc *traceCase) { tc.cfg.ECC = true }},
		{"dt", func(tc *traceCase) { tc.pol = "dt:alpha=2" }},
		{"pushout", func(tc *traceCase) { tc.pol = "pushout" }},
	}
	for _, ct := range []bool{true, false} {
		for _, v := range variants {
			for i, load := range []float64{0.05, 0.5, 0.95} {
				tc := traceCase{
					name: fmt.Sprintf("grid/ct=%v/%s/load=%.2f", ct, v.name, load),
					cfg:  Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: ct},
					tc:   traffic.Config{Kind: traffic.Hotspot, N: 4, Load: load, HotFrac: 0.4, Seed: uint64(41 + i)},
				}
				v.mod(&tc)
				cases = append(cases, tc)
			}
		}
	}
	return cases
}

// sameEvent compares two trace events field by field.
func sameEvent(a, b TraceEvent) bool {
	return a.Cycle == b.Cycle && slices.Equal(a.Ctrl, b.Ctrl) &&
		slices.Equal(a.InLatch, b.InLatch) && slices.Equal(a.OutDrive, b.OutDrive)
}

// TestTracedEqualsReference: the tracer is a tap on the engine, and what it
// reports is what the reference's registers hold — the control word at every
// stage, every input row's latch, every output register's drive — event for
// event, on every configuration of the grid but the VC ones (the reference
// has one VC; TestTracedRunGoldenDigest pins those); the two also deliver
// the same cells at the same cycles. Pipelined links are a delay line in
// front of the reference (lockstep).
func TestTracedEqualsReference(t *testing.T) {
	for _, tc := range traceGrid() {
		if tc.cfg.VCs > 1 {
			continue
		}
		t.Run(tc.name, func(t *testing.T) {
			l := newLockstep(t, tc.cfg, tc.pol)
			var ev TraceEvent
			l.sw.SetTracer(func(e TraceEvent) { ev = e })
			k := l.sw.k
			sched := genSchedule(t, tc.tc, k, 3000)
			drives := 0
			for c := int64(0); c < 3000+int64(4*k*tc.cfg.Cells); c++ {
				ev = TraceEvent{Cycle: -1}
				l.tick(rowAt(sched, c))
				if want := l.ref.trace(); ev.Cycle != c || !sameEvent(ev, want) {
					t.Fatalf("cycle %d: events diverged:\n switch    %v\n reference %v", c, ev, want)
				}
				for _, o := range ev.OutDrive {
					if o >= 0 {
						drives++
					}
				}
			}
			if want := len(l.log) * k; drives != want || want == 0 {
				t.Fatalf("%d output drives traced for %d departures of %d words", drives, len(l.log), k)
			}
		})
	}
}

// TestTracerInstalledMidRun: a tracer installed at an arbitrary cycle sees,
// from that cycle on, exactly the events of a run traced from cycle 0 —
// including the drives of waves initiated (and committed) before it was
// there. One run toggles its tracer on and off at
// random cycles; every event it does emit must be the reference's event
// for that cycle.
func TestTracerInstalledMidRun(t *testing.T) {
	for _, tc := range traceCases() {
		t.Run(tc.name, func(t *testing.T) {
			ref, got := tc.newTraced(t), tc.newTraced(t)
			var evRef TraceEvent
			ref.sw.SetTracer(func(e TraceEvent) { evRef = e })
			var evGot *TraceEvent
			tap := func(e TraceEvent) { evGot = &e }
			k := ref.sw.k
			sched := genSchedule(t, tc.tc, k, traceCycles)
			rng := rand.New(rand.NewPCG(7, uint64(k)))
			installs, compared, on := 0, 0, false
			for c, next := int64(0), int64(1+rng.IntN(3*k)); c < traceCycles+int64(4*k*tc.cfg.Cells); c++ {
				if c == next {
					if on = !on; on {
						got.sw.SetTracer(tap)
						installs++
					} else {
						got.sw.SetTracer(nil)
					}
					next = c + 1 + int64(rng.IntN(3*k))
				}
				evGot = nil
				for _, h := range []*ticknHarness{ref, got} {
					h.sw.Tick(h.vcHeads(rowAt(sched, c)))
					h.collect()
				}
				if (evGot != nil) != on {
					t.Fatalf("cycle %d: tracer installed=%v, event emitted=%v", c, on, evGot != nil)
				}
				if on {
					compared++
					if !sameEvent(*evGot, evRef) {
						t.Fatalf("cycle %d: events diverged:\n installed mid-run %v\n always traced     %v", c, *evGot, evRef)
					}
				}
			}
			checkTicknLogs(t, ref, got)
			if installs < 20 || compared < traceCycles/4 {
				t.Fatalf("vacuous drive: %d installs, %d events compared", installs, compared)
			}
		})
	}
}

// TestTickNTracedEmitsEveryCycle: TickN fast-forwards a quiescent switch in
// one jump, but not past a tracer — it is owed one event per cycle.
func TestTickNTracedEmitsEveryCycle(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true})
	s.TickN(nil, 1000)
	var cycles []int64
	s.SetTracer(func(e TraceEvent) { cycles = append(cycles, e.Cycle) })
	s.TickN(nil, 50)
	s.SetTracer(nil)
	s.TickN(nil, 1<<40)
	if len(cycles) != 50 || cycles[0] != 1000 || cycles[49] != 1049 || s.Cycle() != 1050+1<<40 {
		t.Fatalf("traced TickN over 50 idle cycles emitted %d events (%v…), cycle %d", len(cycles), cycles[:min(len(cycles), 3)], s.Cycle())
	}
}
