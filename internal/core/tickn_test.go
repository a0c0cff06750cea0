package core

import (
	"fmt"
	"reflect"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// ticknConfig is the fast-path-capable shape the equivalence tests run:
// cut-through, no ECC, small buffer so admission policies actually bite.
func ticknConfig() Config {
	return Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true}
}

// genSchedule materializes a traffic stream into a per-cycle arrival
// table: sched[c] is nil for an empty cycle, else the destination per
// input (traffic.NoArrival for idle inputs). Both drivers replay the same
// table, so any divergence is the engine's, not the stream's.
func genSchedule(t testing.TB, tc traffic.Config, k int, cycles int) [][]int {
	t.Helper()
	cs, err := traffic.NewCellStream(tc, k)
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]int, tc.N)
	sched := make([][]int, cycles)
	for c := range sched {
		if cs.Heads(heads) == 0 {
			continue
		}
		sched[c] = append([]int(nil), heads...)
	}
	return sched
}

// ticknHarness owns one switch driven from a shared schedule, logging
// every departure in completion order. The log lines carry everything a
// departure observably is — sequence number, output, the three timestamps,
// the initiation delay, and payload integrity — so equal logs mean the two
// drivers delivered the same cells at the same cycles in the same order.
type ticknHarness struct {
	t   *testing.T
	sw  *Switch
	seq uint64
	hc  []*cell.Cell
	log []string
	// mcastEvery, when positive, gives every mcastEvery-th cell a second
	// destination (the next output round).
	mcastEvery uint64
	// gates, when non-empty, is a gate plan: during cycles
	// [e·gateEpoch, (e+1)·gateEpoch) output o is closed iff bit o of
	// gates[e mod len] is set.
	gates []byte
}

// gateEpoch is how many cycles one gate-plan byte holds.
const gateEpoch = 8

// pushGates drives the output gates to the plan's levels for the
// switch's current cycle. Idempotent, so every driver calls it before each
// Tick or batch — which is also the re-push a rebuilt switch needs.
func (h *ticknHarness) pushGates() {
	if len(h.gates) == 0 {
		return
	}
	b := h.gates[int(h.sw.Cycle()/gateEpoch)%len(h.gates)]
	for o := range h.hc {
		h.sw.SetOutputOpen(o, b&(1<<uint(o)) == 0)
	}
}

func newTicknHarness(t *testing.T, cfg Config, polSpec string) *ticknHarness {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if polSpec != "" {
		p, err := bufmgr.Parse(polSpec)
		if err != nil {
			t.Fatal(err)
		}
		s.SetBufferPolicy(p)
	}
	return &ticknHarness{t: t, sw: s, hc: make([]*cell.Cell, cfg.Ports)}
}

// materialize builds the heads vector for one schedule row (nil row → nil
// vector, so the dead-cycle paths engage exactly as in production drivers).
func (h *ticknHarness) materialize(row []int) []*cell.Cell {
	if row == nil {
		return nil
	}
	k := h.sw.Config().Stages
	wb := h.sw.Config().WordBits
	for j := range h.hc {
		h.hc[j] = nil
		if row[j] != traffic.NoArrival {
			h.seq++
			h.hc[j] = cell.New(h.seq, j, row[j], k, wb)
			if h.mcastEvery > 0 && h.seq%h.mcastEvery == 0 {
				h.hc[j].Copies = []int{(row[j] + 1) % len(h.hc)}
			}
		}
	}
	return h.hc
}

// collect drains completed departures into the log.
func (h *ticknHarness) collect() {
	for _, d := range h.sw.Drain() {
		ok := d.Cell != nil && d.Expected != nil && d.Cell.Equal(d.Expected)
		h.log = append(h.log, fmt.Sprintf("seq=%d out=%d in=%d headout=%d tailout=%d delay=%d intact=%v",
			d.Expected.Seq, d.Output, d.HeadIn, d.HeadOut, d.TailOut, d.InitDelay, ok))
	}
}

// faultAt schedules a memory upset to fire just before the tick of the
// given cycle — the same fire-before-Tick convention the fault engine uses.
// A negative addr is resolved at fire time to an address under a wave in
// flight (underWave).
type faultAt struct {
	cycle       int64
	stage, addr int
	mask        cell.Word
}

// fire injects the upsets due at the switch's current cycle.
func (h *ticknHarness) fire(faults []faultAt) {
	for _, f := range faults {
		if f.cycle != h.sw.Cycle() {
			continue
		}
		a := f.addr
		if a < 0 {
			if a = underWave(h.sw, f.stage, int(f.cycle)); a < 0 {
				continue
			}
		}
		h.sw.InjectMemoryFault(f.stage, a, f.mask)
	}
}

// faultDue reports whether an upset fires before cycle c's tick.
func faultDue(faults []faultAt, c int64) bool {
	for _, f := range faults {
		if f.cycle == c {
			return true
		}
	}
	return false
}

// runPerCycle replays the schedule one Tick per cycle, then ticks the
// drain tail — the reference semantics TickN must be bit-identical to.
func (h *ticknHarness) runPerCycle(sched [][]int, tail int64, faults []faultAt) {
	for _, row := range sched {
		h.fire(faults)
		h.pushGates()
		h.sw.Tick(h.materialize(row))
		h.collect()
	}
	for i := int64(0); i < tail; i++ {
		h.fire(faults)
		h.pushGates()
		h.sw.Tick(nil)
		h.collect()
	}
}

// runBatched replays the same schedule through TickN: one call per arrival
// front plus its trailing gap, with fault cycles forcing batch boundaries
// (a fault fires at a specific cycle, so the batch must stop there, just
// as the session runner's PreTick does per cycle).
func (h *ticknHarness) runBatched(sched [][]int, tail int64, faults []faultAt) {
	total := int64(len(sched)) + tail
	row := func(c int64) []int {
		if c < int64(len(sched)) {
			return sched[c]
		}
		return nil
	}
	c := int64(0)
	for c < total {
		h.fire(faults)
		front := h.materialize(row(c))
		g := int64(1)
		for c+g < total && row(c+g) == nil && !faultDue(faults, c+g) {
			g++
		}
		h.sw.TickN(front, g)
		h.collect()
		c += g
	}
}

// scrubFreedMem zeroes the memory words (and, on an ECC switch, the check
// bits) of unreferenced buffer addresses. Their contents are dead state — a
// freed address is fully rewritten before any wave reads it again — but
// they can legitimately differ between two equivalent histories:
// serializing a snapshot materializes lazily deferred payloads into the
// array, while a run never snapshotted leaves those words untouched.
func scrubFreedMem(st *SwitchState) {
	k := st.Config.Canonical().Stages
	for addr, rc := range st.Refcnt {
		if rc == 0 {
			clear(st.Mem[addr*k : addr*k+k])
			if st.ECCMem != nil {
				clear(st.ECCMem[addr*k : addr*k+k])
			}
		}
	}
}

// checkEqual compares the complete observable record of two drives: the
// departure logs, the clocks, quiescence, and the full serialized state.
// scrubFreed relaxes the state comparison to live bytes only (see
// scrubFreedMem) — needed when exactly one side snapshotted mid-run.
func checkTicknEqual(t *testing.T, ref, bat *ticknHarness, scrubFreed bool) {
	t.Helper()
	checkTicknLogs(t, ref, bat)
	if rc, bc := ref.sw.Cycle(), bat.sw.Cycle(); rc != bc {
		t.Fatalf("clocks diverged: per-cycle %d, batched %d", rc, bc)
	}
	if rq, bq := ref.sw.Quiescent(), bat.sw.Quiescent(); rq != bq {
		t.Fatalf("quiescence diverged: per-cycle %v, batched %v", rq, bq)
	}
	if err := ref.sw.AuditInvariants(); err != nil {
		t.Fatalf("per-cycle audit: %v", err)
	}
	if err := bat.sw.AuditInvariants(); err != nil {
		t.Fatalf("batched audit: %v", err)
	}
	rs, err := ref.sw.Snapshot()
	if err != nil {
		t.Fatalf("per-cycle snapshot: %v", err)
	}
	bs, err := bat.sw.Snapshot()
	if err != nil {
		t.Fatalf("batched snapshot: %v", err)
	}
	if scrubFreed {
		scrubFreedMem(rs)
		scrubFreedMem(bs)
	}
	if !reflect.DeepEqual(rs, bs) {
		t.Fatalf("serialized state diverged:\n per-cycle %+v\n batched   %+v", rs, bs)
	}
}

// TestTickNEquivalencePolicies is the satellite contract: TickN(heads, n)
// is bit-identical to Tick(heads) followed by n-1 Tick(nil), under every
// shared-buffer admission policy (each routes arrivals through different
// accept/evict paths, so each stresses different fast-path seams).
func TestTickNEquivalencePolicies(t *testing.T) {
	policies := []string{"", "share", "static:quota=8", "dt:alpha=2", "dd:target=8", "pushout"}
	cfg := ticknConfig()
	k := cfg.Canonical().Stages
	tail := int64(8*k + 64)
	for _, pol := range policies {
		name := pol
		if name == "" {
			name = "unmanaged"
		}
		t.Run(name, func(t *testing.T) {
			// Load high enough to overrun the 32-cell buffer, so drops and
			// policy verdicts land inside batches, not only at fronts.
			tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.85, Seed: 19}
			sched := genSchedule(t, tc, k, 1200)
			ref := newTicknHarness(t, cfg, pol)
			bat := newTicknHarness(t, cfg, pol)
			ref.runPerCycle(sched, tail, nil)
			bat.runBatched(sched, tail, nil)
			checkTicknEqual(t, ref, bat, false)
			if !ref.sw.Quiescent() {
				t.Fatal("reference switch did not drain")
			}
		})
	}
}

// TestTickNEquivalenceLightLoad drives the shape the idle fast-forward is
// for — long gaps between sparse arrivals — where the event-driven
// fast-forward collapses most of every TickN call.
func TestTickNEquivalenceLightLoad(t *testing.T) {
	cfg := ticknConfig()
	k := cfg.Canonical().Stages
	tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.01, Seed: 23}
	sched := genSchedule(t, tc, k, 20000)
	tail := int64(8*k + 64)
	ref := newTicknHarness(t, cfg, "")
	bat := newTicknHarness(t, cfg, "")
	ref.runPerCycle(sched, tail, nil)
	bat.runBatched(sched, tail, nil)
	checkTicknEqual(t, ref, bat, false)
	if len(ref.log) == 0 {
		t.Fatal("light-load schedule delivered nothing; test is vacuous")
	}
}

// TestTickNEquivalenceMemFault checks memory upsets under TickN
// (InjectMemoryFault materializes any lazily deferred payload before
// flipping, so the flip lands on real bytes, and opens the waves in flight
// it reaches). Both drivers inject the identical upsets at the identical cycles;
// the corrupted departures must then be identical too — same cells, same
// cycles, same intact=false lines.
func TestTickNEquivalenceMemFault(t *testing.T) {
	cfg := ticknConfig()
	k := cfg.Canonical().Stages
	tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.85, Seed: 31}
	sched := genSchedule(t, tc, k, 800)
	tail := int64(8*k + 64)
	faults := []faultAt{
		{cycle: 60, stage: 2, addr: 5, mask: 0x0004},
		{cycle: 61, stage: 2, addr: 5, mask: 0x0200},
		{cycle: 240, stage: 0, addr: 17, mask: 0x0001},
		{cycle: 241, stage: k - 1, addr: 3, mask: 0x8000},
		{cycle: 500, stage: 7 % k, addr: 30, mask: 0x0040},
	}
	ref := newTicknHarness(t, cfg, "dt:alpha=2")
	bat := newTicknHarness(t, cfg, "dt:alpha=2")
	ref.runPerCycle(sched, tail, faults)
	bat.runBatched(sched, tail, faults)
	checkTicknEqual(t, ref, bat, false)
	corrupt := 0
	for _, line := range ref.log {
		if line[len(line)-len("false"):] == "false" {
			corrupt++
		}
	}
	if corrupt == 0 {
		t.Fatal("no upset hit a live word; the fault schedule tests nothing")
	}
}

// TestTickNFastForward pins the O(1) fast-forward: once the switch is
// quiescent, a huge TickN must land on the exact clock per-cycle ticking
// would, with identical serialized state — and it must do so immediately
// (no possible per-cycle loop over 2^40 cycles completes in test time).
func TestTickNFastForward(t *testing.T) {
	cfg := ticknConfig()
	k := cfg.Canonical().Stages
	warm := func() *Switch {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		// A little traffic so the ctrl ring holds retiring waves at the
		// moment the jump starts, then drain to quiescence.
		for i := 0; i < 3; i++ {
			hc := make([]*cell.Cell, cfg.Ports)
			hc[0] = cell.New(uint64(i+1), 0, 1, k, cfg.WordBits)
			s.Tick(hc)
			for j := 0; j < k; j++ {
				s.Tick(nil)
			}
		}
		for !s.Quiescent() {
			s.Tick(nil)
		}
		s.Drain()
		return s
	}

	// Small jump vs the same count per-cycle: bit-identical state.
	a, b := warm(), warm()
	const small = 3 * 17
	a.TickN(nil, small)
	for i := 0; i < small; i++ {
		b.Tick(nil)
	}
	as, err := a.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	bs, err := b.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(as, bs) {
		t.Fatalf("jump state diverged from per-cycle state:\n jump      %+v\n per-cycle %+v", as, bs)
	}

	// Astronomical jump: only the O(1) path can finish this.
	c := warm()
	c0 := c.Cycle()
	const huge = int64(1) << 40
	c.TickN(nil, huge)
	if got := c.Cycle(); got != c0+huge {
		t.Fatalf("fast-forward clock: got %d, want %d", got, c0+huge)
	}
	if !c.Quiescent() {
		t.Fatal("fast-forward left a quiescent switch non-quiescent")
	}
	if err := c.AuditInvariants(); err != nil {
		t.Fatalf("audit after fast-forward: %v", err)
	}
	// And the switch still works afterwards: a cell injected after the
	// jump must come out intact.
	hc := make([]*cell.Cell, cfg.Ports)
	hc[2] = cell.New(999, 2, 0, k, cfg.WordBits)
	c.Tick(hc)
	for i := 0; i < 4*k && !c.Quiescent(); i++ {
		c.Tick(nil)
	}
	deps := c.Drain()
	if len(deps) != 1 || !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatalf("post-jump delivery broken: %d departures", len(deps))
	}
}

// FuzzTickN fuzzes the knobs the deterministic tests fix by hand: the
// batch split (where TickN calls begin and end relative to arrival fronts
// and gaps), the cut cycle (where the batched run is snapshotted,
// serialized, rebuilt and resumed) and a gate plan (which outputs are
// closed when, see ticknHarness.gates — so closed outputs meet the
// fast-forward, the batch splits and the cut). Whatever the fuzzer picks,
// the batched drive must reproduce the per-cycle departure log and final
// state.
func FuzzTickN(f *testing.F) {
	f.Add(uint16(19), uint16(200), []byte{3, 9, 1, 30}, false, []byte{})
	f.Add(uint16(7), uint16(0), []byte{}, false, []byte{})
	f.Add(uint16(301), uint16(77), []byte{255, 255, 0, 1, 16}, false, []byte{})
	f.Add(uint16(19), uint16(122), []byte{3, 9, 1, 30}, true, []byte{}) // cut inside a dirty window
	f.Add(uint16(301), uint16(260), []byte{2}, true, []byte{})
	f.Add(uint16(7), uint16(61), []byte{}, true, []byte{})
	f.Add(uint16(19), uint16(203), []byte{3, 9, 1, 30}, false, []byte{0x2, 0xf, 0x0, 0x5, 0xa}) // cut while gated
	f.Add(uint16(301), uint16(90), []byte{}, false, []byte{0xf, 0xf, 0xf, 0x0})                 // all closed, then all open
	f.Add(uint16(7), uint16(125), []byte{5, 1}, true, []byte{0x1, 0xc, 0x0})
	// The 128-cycle tail has no arrivals; seed 19's switch is idle from cycle
	// 412 and TickN skips from there to the end. A cut on the first skipped
	// cycle, inside the skip, and on the last cycle of all.
	f.Add(uint16(19), uint16(412), []byte{}, false, []byte{})
	f.Add(uint16(19), uint16(470), []byte{3, 9, 1, 30}, false, []byte{})
	f.Add(uint16(19), uint16(527), []byte{}, false, []byte{})
	f.Fuzz(func(t *testing.T, seed uint16, cut uint16, splits []byte, ecc bool, gates []byte) {
		cfg := ticknConfig()
		// With ECC on, both drives also take sparse upsets (one of them
		// uncorrectable): every upset opens a dirty window on the exact
		// path, and the cut may land inside one.
		var faults []faultAt
		if cfg.ECC = ecc; ecc {
			faults = []faultAt{
				{cycle: 60, stage: 2, addr: -1, mask: 0x0004},
				{cycle: 120, stage: 0, addr: -1, mask: 0x8000},
				{cycle: 121, stage: 5, addr: -1, mask: 0x0600},
				{cycle: 259, stage: 7, addr: -1, mask: 0x0001},
			}
		}
		k := cfg.Canonical().Stages
		tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.6, Seed: uint64(seed)}
		const cycles = 400
		sched := genSchedule(t, tc, k, cycles)
		tail := int64(8*k + 64)
		total := int64(cycles) + tail

		ref := newTicknHarness(t, cfg, "")
		ref.gates = gates
		ref.runPerCycle(sched, tail, faults)

		bat := newTicknHarness(t, cfg, "")
		bat.gates = gates
		row := func(c int64) []int {
			if c < int64(len(sched)) {
				return sched[c]
			}
			return nil
		}
		// The cut cycle folds into the driven window; a snapshot there
		// exercises serialization from whatever state the switch is in at
		// an arbitrary point of an arbitrary split.
		cutAt := int64(cut) % total
		cutDone := false
		si := 0
		nextSplit := func() int64 {
			if len(splits) == 0 {
				return 1 << 30 // no split bytes: maximal batches
			}
			b := splits[si%len(splits)]
			si++
			return int64(b%16) + 1
		}
		c := int64(0)
		for c < total {
			bat.fire(faults)
			bat.pushGates()
			front := bat.materialize(row(c))
			// The batch may not run past the next arrival (TickN carries
			// arrivals only in its first cycle), an upset, the cut or the
			// next gate-plan byte.
			g := int64(1)
			limit := nextSplit()
			for c+g < total && g < limit && row(c+g) == nil && c+g != cutAt && !faultDue(faults, c+g) &&
				(len(gates) == 0 || (c+g)%gateEpoch != 0) {
				g++
			}
			bat.sw.TickN(front, g)
			bat.collect()
			c += g
			if c == cutAt && !cutDone {
				cutDone = true
				st, err := bat.sw.Snapshot()
				if err != nil {
					t.Fatalf("snapshot at cut cycle %d: %v", cutAt, err)
				}
				st = mustJSONRoundTrip(t, st)
				s2, err := NewFromSnapshot(st)
				if err != nil {
					t.Fatalf("restore at cut cycle %d: %v", cutAt, err)
				}
				bat.sw = s2
			}
		}
		// The restored switch rebuilt its in-flight cells from the
		// serialized payloads, so Expected pointers differ but contents
		// must not: the log compares contents only. Freed memory words are
		// scrubbed from the comparison — serializing at the cut cycle
		// materialized lazy payloads the reference never flushed.
		checkTicknEqual(t, ref, bat, true)
	})
}
