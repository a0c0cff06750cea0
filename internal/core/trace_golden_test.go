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
// tracer installed from cycle 0, and digests the whole fig. 5 stream three
// ways: the TraceEvent.String lines, the JSONL records, and the bytes a
// VCDWriter produces from the same events.
func tracedDigests(t *testing.T, tc traceCase) (text, jsonl, vcd uint64, events, deps int) {
	t.Helper()
	h := tc.newTraced(t)
	k := h.sw.k
	hs, hj, hv := fnv.New64a(), fnv.New64a(), fnv.New64a()
	vw := NewVCDWriter(hv, h.sw, 16)
	var buf []byte
	h.sw.SetTracer(func(e TraceEvent) {
		events++
		fmt.Fprintln(hs, e.String())
		buf = append(e.AppendJSON(buf[:0]), '\n')
		hj.Write(buf)
		vw.Trace(e)
	})
	sched := genSchedule(t, tc.tc, k, traceCycles)
	for c := int64(0); c < traceCycles+int64(4*k*tc.cfg.Cells); c++ {
		h.sw.Tick(h.vcHeads(rowAt(sched, c)))
		h.collect()
	}
	if err := vw.Err(); err != nil {
		t.Fatal(err)
	}
	if !h.sw.Quiescent() {
		t.Fatal("switch not drained by the end of the tail")
	}
	return hs.Sum64(), hj.Sum64(), hv.Sum64(), events, len(h.log)
}

// TestTracedRunGoldenDigest pins the fig. 5 tap on busy runs: every
// TraceEvent of a few thousand cycles — control word at every stage, input
// latches, output drives — as text, as JSONL and as VCD bytes. The two
// hand-written goldens (TestGoldenFig5Trace, TestGoldenStoreAndForwardTrace)
// cover a dozen cycles of a 2×2; these cover back-to-back waves on every
// stage, VC arbitration, policy drops and evictions, pipelined links and
// long dead stretches, on every configuration of traceGrid — the VC ones,
// which the reference does not model, included. The events must not move.
func TestTracedRunGoldenDigest(t *testing.T) {
	type pin struct {
		text, jsonl, vcd uint64
		events, deps     int
	}
	golden := map[string]pin{
		"4x4/ct/bern0.6":                    {0x998113820f2dcd58, 0x79f36221f73592a7, 0x6d7bb6b27f8c5f1b, 3012, 746},
		"4x4/ct/sparse":                     {0xba83439d8bb1a7f1, 0x691a274e2a56a3d, 0x627a80d23877cfc4, 3012, 65},
		"8x8/sf/sat":                        {0xfb10f37ae2d523db, 0xda60250b60e56c1f, 0xb690f8ee6a6a8dba, 4548, 1119},
		"8x8/ct/perm":                       {0x45153e95c8bb3977, 0x3431a3fe8d83f837, 0x2eed7464659a40a8, 4548, 1256},
		"4x4/ct/vcs2-wrr":                   {0x56f3ddc6a618464, 0x45ab99d2e5c05617, 0x7304df858cc5c5b4, 3012, 1121},
		"4x4/sf/dt":                         {0x5e6f7cb43003715b, 0x42a7a3d7dbb5e1a7, 0x50e9c0da00fdb0ed, 3012, 677},
		"4x4/ct/pushout":                    {0xb636621f684a2d2b, 0x7835cb637c209e45, 0x592b749e55b396cc, 2756, 1140},
		"8x8/ct/linkpipe2":                  {0x2d0e45c0e0ab0204, 0xa4cbb106f90c78b, 0x57ba0fe0d5520224, 4548, 996},
		"4x4/sf/linkpipe2-sparse":           {0xc364bcb78f5c17c8, 0xa15af1399e84707b, 0x3e1010372e180869, 3012, 63},
		"grid/ct=true/plain/load=0.05":      {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/plain/load=0.50":      {0x408cea6d21f16639, 0xc55ec9ff63ed7e8f, 0x7aa90043399d5d70, 3012, 592},
		"grid/ct=true/plain/load=0.95":      {0x10217833d965ccc4, 0xd5ed9d106c22f06d, 0xf067b9527d60afca, 3012, 595},
		"grid/ct=true/vcs2/load=0.05":       {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/vcs2/load=0.50":       {0x43e4e25d45d634c5, 0xb7a2bc7d960a291f, 0xf9f3e19f89aac058, 3012, 592},
		"grid/ct=true/vcs2/load=0.95":       {0x9074bffa84a55102, 0xff5ebf46f238acb3, 0x57e0899e773af884, 3012, 595},
		"grid/ct=true/linkpipe2/load=0.05":  {0x77161c20d7bfddc3, 0x2d1ac75c3299ef2d, 0x5683cdcace0ce565, 3012, 63},
		"grid/ct=true/linkpipe2/load=0.50":  {0x3a3808fed58b3aed, 0x7f013e89abb65bf7, 0xfbaf481937963994, 3012, 592},
		"grid/ct=true/linkpipe2/load=0.95":  {0xd3c86c46ebdd90d6, 0xb9f6d6d397f89893, 0xaea57049cad7dd68, 3012, 595},
		"grid/ct=true/ecc/load=0.05":        {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/ecc/load=0.50":        {0x408cea6d21f16639, 0xc55ec9ff63ed7e8f, 0x7aa90043399d5d70, 3012, 592},
		"grid/ct=true/ecc/load=0.95":        {0x10217833d965ccc4, 0xd5ed9d106c22f06d, 0xf067b9527d60afca, 3012, 595},
		"grid/ct=true/dt/load=0.05":         {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/dt/load=0.50":         {0xeffff018bce7bad4, 0xa4a902d2f1806a7f, 0x1a66fc9b3546349c, 3012, 588},
		"grid/ct=true/dt/load=0.95":         {0xe703b94ae01c522, 0x759f87f6d5a4d8a7, 0xc912d6e851984d30, 3012, 865},
		"grid/ct=true/pushout/load=0.05":    {0xed9b4d2b6493311d, 0x4612728d9e6657a9, 0x5e464e683bf3dec, 3012, 63},
		"grid/ct=true/pushout/load=0.50":    {0x1a13e6545425c39f, 0x49f2a1bcba1d4c0d, 0x99bf0e57fe295c20, 3012, 596},
		"grid/ct=true/pushout/load=0.95":    {0x25ab36deb4531054, 0xd4fbedbbb332f06d, 0x956764610596b410, 3012, 872},
		"grid/ct=false/plain/load=0.05":     {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/plain/load=0.50":     {0x4562dc5869641a59, 0x6d69cdabbe60c60f, 0x18e7d843a49560da, 3012, 590},
		"grid/ct=false/plain/load=0.95":     {0x7c6f4f15056d53a9, 0xad9cd03fa5858b95, 0x8977381008541e00, 3012, 582},
		"grid/ct=false/vcs2/load=0.05":      {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/vcs2/load=0.50":      {0x724876347d6f0ccb, 0x7e726577da7ad60d, 0x66f392ecbbb93eee, 3012, 590},
		"grid/ct=false/vcs2/load=0.95":      {0xec2a43258f412477, 0x4de5dc677d973af1, 0x6c42350a1436c47a, 3012, 582},
		"grid/ct=false/linkpipe2/load=0.05": {0x664581e153e56341, 0x4ec300d490ebe485, 0xf0402d611422089f, 3012, 63},
		"grid/ct=false/linkpipe2/load=0.50": {0xa13a64590f06d969, 0xb693206a1f8b8e0f, 0x7d3ca7917fa7a8f8, 3012, 590},
		"grid/ct=false/linkpipe2/load=0.95": {0x8653a78c70aa29a9, 0xdcf54477563d2bd1, 0xe53408f6530ae71a, 3012, 582},
		"grid/ct=false/ecc/load=0.05":       {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/ecc/load=0.50":       {0x4562dc5869641a59, 0x6d69cdabbe60c60f, 0x18e7d843a49560da, 3012, 590},
		"grid/ct=false/ecc/load=0.95":       {0x7c6f4f15056d53a9, 0xad9cd03fa5858b95, 0x8977381008541e00, 3012, 582},
		"grid/ct=false/dt/load=0.05":        {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/dt/load=0.50":        {0x7ccfdb3989866955, 0x531e97485f175103, 0x8226f7a94f9fe2fe, 3012, 584},
		"grid/ct=false/dt/load=0.95":        {0xb618bf49d551f169, 0xf38144601acb388f, 0x8e51066df646d97c, 3012, 864},
		"grid/ct=false/pushout/load=0.05":   {0x14ed01b131728fe7, 0x7debacd39e65e42d, 0x39c291825e7c6c76, 3012, 63},
		"grid/ct=false/pushout/load=0.50":   {0xca6d580c10f09ddd, 0x6b6d983c146bbeeb, 0xaec77d6537cf2fa0, 3012, 593},
		"grid/ct=false/pushout/load=0.95":   {0xf4c0d171978fc20d, 0x704af23a6ac3dc25, 0xf0a235d5ff0c734e, 3012, 868},
	}
	for _, tc := range traceGrid() {
		t.Run(tc.name, func(t *testing.T) {
			text, jsonl, vcd, events, deps := tracedDigests(t, tc)
			got := pin{text, jsonl, vcd, events, deps}
			if want, ok := golden[tc.name]; !ok || got != want {
				t.Fatalf("traced run moved:\n got  {%#x, %#x, %#x, %d, %d}\n want {%#x, %#x, %#x, %d, %d}",
					got.text, got.jsonl, got.vcd, got.events, got.deps,
					want.text, want.jsonl, want.vcd, want.events, want.deps)
			}
			if deps == 0 || events < traceCycles {
				t.Fatalf("vacuous run: %d events, %d departures", events, deps)
			}
		})
	}
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
