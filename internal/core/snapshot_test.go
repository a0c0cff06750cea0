package core

import (
	"encoding/json"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// runnerTo drives a fresh (switch, stream, runner) triple for the given
// number of steps and returns it. polSpec optionally installs a bufmgr
// policy.
func runnerTo(t *testing.T, cfg Config, tc traffic.Config, cycles int64, polSpec string, steps int) *Runner {
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
	cs, err := traffic.NewCellStream(tc, cfg.Canonical().Stages)
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner(s, cs, cycles)
	for i := 0; i < steps && r.Step(); i++ {
	}
	return r
}

// TestSnapshotReplayEquivalence is the core-level replay-equivalence
// check: snapshot mid-run (including a JSON round trip of every state
// struct), rebuild, and require a bit-identical RunResult.
func TestSnapshotReplayEquivalence(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true}
	tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.85, Seed: 7}
	const cycles = 2000

	ref := runnerTo(t, cfg, tc, cycles, "dt:alpha=2", 0)
	want, err := ref.Result()
	if err != nil {
		t.Fatal(err)
	}

	// Second run, interrupted at an awkward cycle and revived through the
	// full serialization path.
	r := runnerTo(t, cfg, tc, cycles, "dt:alpha=2", 777)
	swState, err := r.Switch().Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	stream := mustJSONRoundTrip(t, swState)
	runState := r.State()
	trafficState, err := streamOf(r).State()
	if err != nil {
		t.Fatal(err)
	}

	s2, err := NewFromSnapshot(stream)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := bufmgr.Parse("dt:alpha=2")
	s2.SetBufferPolicy(p)
	cs2, err := traffic.RestoreCellStream(tc, cfg.Canonical().Stages, trafficState)
	if err != nil {
		t.Fatal(err)
	}
	r2 := NewRunner(s2, cs2, cycles)
	if err := r2.RestoreState(runState); err != nil {
		t.Fatal(err)
	}
	got, err := r2.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\n got  %+v\n want %+v", got, want)
	}
}

// streamOf reaches the runner's stream for tests.
func streamOf(r *Runner) *traffic.CellStream { return r.cs }

func mustJSONRoundTrip(t *testing.T, st *SwitchState) *SwitchState {
	t.Helper()
	b, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := new(SwitchState)
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatal(err)
	}
	return out
}

// A snapshot taken with uncollected departures must be refused: the
// departure buffer's cells are mid-recycle.
func TestSnapshotRefusesUncollectedDepartures(t *testing.T) {
	s, _ := New(Config{Ports: 2, WordBits: 8, Cells: 8, CutThrough: true})
	k := s.Config().Stages
	var seq uint64
	heads := make([]*cell.Cell, 2)
	for c := 0; c < 10*k && len(s.done) == 0; c++ {
		for i := range heads {
			heads[i] = nil
			if c%k == 0 {
				seq++
				heads[i] = cell.New(seq, i, (i+1)%2, k, 8)
			}
		}
		s.Tick(heads)
	}
	if len(s.done) == 0 {
		t.Fatal("no departure accumulated; scenario not reached")
	}
	if _, err := s.Snapshot(); err == nil {
		t.Fatal("snapshot with uncollected departures must fail")
	}
}

// TestAuditInvariantsCleanRun runs the auditor frequently through a loaded
// run (including drain) and expects silence.
func TestAuditInvariantsCleanRun(t *testing.T) {
	cfgs := []Config{
		{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true},
		{Ports: 4, WordBits: 16, Cells: 16, VCs: 2},
		{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true, LinkPipeline: 3},
	}
	for _, cfg := range cfgs {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: 21}, s.Config().Stages)
		r := NewRunner(s, cs, 1500)
		for r.Step() {
			if err := s.AuditInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", s.Cycle(), err)
			}
		}
		if _, err := r.Result(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestAuditDetectsCorruption plants bookkeeping corruption and expects the
// auditor to flag it.
func TestAuditDetectsCorruption(t *testing.T) {
	mk := func() *Switch {
		s, _ := New(Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: false})
		cs, _ := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: 4, Load: 1, Seed: 5}, s.Config().Stages)
		r := NewRunner(s, cs, 200)
		for i := 0; i < 150; i++ {
			r.Step()
		}
		if s.Buffered() == 0 {
			t.Fatal("scenario needs buffered cells")
		}
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("pre-corruption audit failed: %v", err)
		}
		return s
	}

	s := mk()
	s.outOcc[0]++
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("occupancy corruption went undetected")
	}

	s = mk()
	s.pendingWrites++
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("pendingWrites corruption went undetected")
	}

	s = mk()
	for a := range s.refcnt {
		if s.refcnt[a] > 0 {
			s.refcnt[a]++
			break
		}
	}
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("refcnt corruption went undetected")
	}

	s = mk()
	s.counts.Offered++
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("conservation violation went undetected")
	}

	// With multicast copies resident: a copy lost from the books.
	s = mustSwitch(t, Config{Ports: 8, WordBits: 16, Cells: 64, VCs: 2})
	driveMulticast(t, s)
	s.counts.MulticastCopies--
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("multicast conservation violation went undetected")
	}

	// One flipped bit of each derived port mask, on the 4-port switch and
	// on a 130-port one at ports of its second and third words.
	wide := func() *Switch {
		s := mustSwitch(t, Config{Ports: 130, WordBits: 16, Cells: 128})
		cs, _ := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, N: 130, Load: 1, Seed: 5}, s.Config().Stages)
		r := NewRunner(s, cs, 2000)
		for i := 0; i < 700; i++ {
			r.Step()
		}
		if s.Buffered() == 0 || s.txActive == 0 {
			t.Fatal("scenario needs buffered and departing cells")
		}
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("pre-corruption audit failed: %v", err)
		}
		return s
	}
	flip := func(m portSet, i int) { m[i>>6] ^= 1 << uint(i&63) }
	for _, tc := range []struct {
		mk   func() *Switch
		mask func(s *Switch) portSet
		port int
		want string // the audit clause that must catch it
	}{
		{mk, func(s *Switch) portSet { return s.occMask }, 2, "output 2 occupancy bit"},
		{mk, func(s *Switch) portSet { return s.idleMask }, 1, "output 1 idle bit"},
		{mk, func(s *Switch) portSet { return s.pendMask }, 3, "input 3 pending bit"},
		{wide, func(s *Switch) portSet { return s.occMask }, 100, "output 100 occupancy bit"},
		{wide, func(s *Switch) portSet { return s.idleMask }, 129, "output 129 idle bit"},
		{wide, func(s *Switch) portSet { return s.pendMask }, 64, "input 64 pending bit"},
		{wide, func(s *Switch) portSet { return s.openMask }, 130, "port masks carry bits 0x1 counted from port 130"},
	} {
		s := tc.mk()
		flip(tc.mask(s), tc.port)
		if err := s.AuditInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("bit %d flipped: audit says %v, want %q", tc.port, err, tc.want)
		}
	}

	// The dual switch's pickers trust the same words: one flipped bit of
	// each, on a 4-port and a 65-port dual switch.
	for _, tc := range []struct {
		n    int
		mask func(d *DualSwitch) portSet
		port int
		want string
	}{
		{4, func(d *DualSwitch) portSet { return d.occMask }, 2, "output 2 occupancy bit"},
		{4, func(d *DualSwitch) portSet { return d.idleMask }, 1, "output 1 idle bit"},
		{4, func(d *DualSwitch) portSet { return d.pendMask }, 3, "input 3 pending bit"},
		{65, func(d *DualSwitch) portSet { return d.occMask }, 64, "output 64 occupancy bit"},
		{65, func(d *DualSwitch) portSet { return d.idleMask }, 33, "output 33 idle bit"},
		{65, func(d *DualSwitch) portSet { return d.pendMask }, 64, "input 64 pending bit"},
		{65, func(d *DualSwitch) portSet { return d.pendMask }, 65, "port masks carry bits 0x1 counted from port 65"},
	} {
		d := busyDual(t, tc.n)
		flip(tc.mask(d), tc.port)
		if err := d.AuditInvariants(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Fatalf("dual n=%d, bit %d flipped: audit says %v, want %q", tc.n, tc.port, err, tc.want)
		}
	}
}

// busyDual returns an n-port dual switch driven at saturation until it
// holds buffered cells, departures in progress and unwritten arrivals, and
// audits clean.
func busyDual(t *testing.T, n int) *DualSwitch {
	t.Helper()
	d := mustDual(t, Config{Ports: n, WordBits: 16, Cells: 2 * n})
	sched := genSchedule(t, traffic.Config{Kind: traffic.Saturation, N: n, Seed: 5}, n, 8*n)
	heads := make([]*cell.Cell, n)
	var seq uint64
	for c := range sched {
		d.Tick(headsFor(sched[c], heads, &seq, n, 16, 1))
		d.Drain()
	}
	if d.Buffered() == 0 || d.txActive == 0 || d.pendingWrites == 0 {
		t.Fatalf("n=%d: scenario needs buffered (%d), departing (%d) and pending (%d) cells", n, d.Buffered(), d.txActive, d.pendingWrites)
	}
	if err := d.AuditInvariants(); err != nil {
		t.Fatalf("n=%d: pre-corruption audit failed: %v", n, err)
	}
	return d
}

// TestDualAuditZeroAlloc: the dual switch's audit allocates nothing on the
// clean path, at one and two mask words.
func TestDualAuditZeroAlloc(t *testing.T) {
	for _, n := range []int{4, 65} {
		d := busyDual(t, n)
		if allocs := testing.AllocsPerRun(2000, func() {
			if err := d.AuditInvariants(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("n=%d: DualSwitch.AuditInvariants allocates %.2f/op, want 0", n, allocs)
		}
	}
}

// TestAuditZeroAlloc pins the auditor's steady-state cost: on a warm
// switch (scratch table already built by the first call) a full invariant
// audit allocates nothing, so running it online every N cycles costs
// cache traffic, not garbage.
func TestAuditZeroAlloc(t *testing.T) {
	for _, cfg := range []Config{
		{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true},
		// The clean-word clause decodes every live word of an ECC switch.
		{Ports: 8, WordBits: 16, Cells: 256, ECC: true},
		// Multicast: the conservation and refcount clauses count copies.
		{Ports: 8, WordBits: 16, Cells: 64, VCs: 2},
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if cfg.VCs == 2 {
			driveMulticast(t, s)
		} else {
			cs, _ := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, s.Config().Stages)
			r := NewRunner(s, cs, 1<<20)
			for i := 0; i < 1024; i++ {
				r.Step()
			}
		}
		if err := s.AuditInvariants(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(2000, func() {
			if err := s.AuditInvariants(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("%+v: AuditInvariants allocates %.2f/op on a warm switch, want 0", cfg, allocs)
		}
	}
}

// driveMulticast saturates s with cells of which every other one fans out
// to two more outputs on VC 1, auditing every cycle, and leaves it holding
// multicast copies.
func driveMulticast(t *testing.T, s *Switch) {
	t.Helper()
	n, k := s.Config().Ports, s.Config().Stages
	heads := make([]*cell.Cell, n)
	seq := uint64(0)
	for c := 0; c < 40*k; c++ {
		h := heads
		if c%k != 0 {
			h = nil
		}
		for i := range heads {
			seq++
			heads[i] = cell.New(seq, i, (i+c/k)%n, k, 16)
			if seq%2 == 0 {
				heads[i].VC, heads[i].Copies = 1, []int{(i + 1) % n, (i + 3) % n}
			}
		}
		s.Tick(h)
		s.Drain()
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if s.counts.MulticastCopies == 0 || !slices.ContainsFunc(s.refcnt, func(r int) bool { return r > 1 }) {
		t.Fatal("set-up: no multicast copies resident")
	}
}

// TestRestoreRejectsUnusableCells: every cell a restored switch will
// dereference — a queued descriptor's, an active arrival's, an egress
// record's — must be present and exactly k words, and an output carries at
// most one egress record of at most k words. NewFromSnapshot used to accept
// such states and the next Tick dereferenced nil; it must refuse them with
// an error, before any Tick.
func TestRestoreRejectsUnusableCells(t *testing.T) {
	// Store-and-forward at load 0.9: after 300 cycles some queue, some
	// input row and some egress slot are busy.
	r := runnerTo(t, Config{Ports: 4, WordBits: 16, Cells: 32}, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: 3}, 2000, "", 0)
	for i := 0; i < 300; i++ {
		r.Step()
	}
	good, err := r.s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	k := r.s.k
	queued := func(st *SwitchState) *DescState {
		for q := range st.Queues {
			if len(st.Queues[q]) > 0 {
				return &st.Queues[q][0].Desc
			}
		}
		t.Fatal("set-up: no queued descriptor")
		return nil
	}
	arriving := func(st *SwitchState) *ArrivalState {
		for i := range st.Inflight {
			if st.Inflight[i].Active && !st.Inflight[i].Written {
				return &st.Inflight[i]
			}
		}
		t.Fatal("set-up: no arrival waiting for its write wave")
		return nil
	}
	sending := func(st *SwitchState) *[]ReasmState {
		for o := range st.Egress {
			if len(st.Egress[o]) == 1 {
				return &st.Egress[o]
			}
		}
		t.Fatal("set-up: no transmission in flight")
		return nil
	}
	cases := []struct {
		name    string
		mutate  func(st *SwitchState)
		wantSub string
	}{
		{"queued/nil-cell", func(st *SwitchState) { queued(st).Cell = nil }, "has no cell"},
		{"queued/short-cell", func(st *SwitchState) { c := queued(st).Cell; c.Words = c.Words[:k-1] }, "words"},
		{"queued/all-nil", func(st *SwitchState) {
			for q := range st.Queues {
				for i := range st.Queues[q] {
					st.Queues[q][i].Desc.Cell = nil
				}
			}
		}, "has no cell"},
		{"arrival/nil-cell", func(st *SwitchState) { arriving(st).Cell = nil }, "has no cell"},
		{"arrival/long-cell", func(st *SwitchState) { c := arriving(st).Cell; c.Words = append(c.Words, 0) }, "words"},
		{"arrival/bad-dst", func(st *SwitchState) { arriving(st).Cell.Dst = 4 }, "output 4"},
		{"egress/nil-cell", func(st *SwitchState) { (*sending(st))[0].Desc.Cell = nil }, "has no cell"},
		{"egress/short-cell", func(st *SwitchState) { c := (*sending(st))[0].Desc.Cell; c.Words = c.Words[:1] }, "words"},
		{"egress/too-many-words", func(st *SwitchState) {
			rs := &(*sending(st))[0]
			rs.Words = append(rs.Words, make([]cell.Word, k)...)
		}, "reassembled"},
		{"egress/two-records", func(st *SwitchState) { l := sending(st); *l = append(*l, (*l)[0]) }, "one cell at a time"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := mustJSONRoundTrip(t, good) // a private deep copy
			tc.mutate(st)
			s, err := NewFromSnapshot(st)
			if err == nil {
				s.Tick(nil) // the old failure mode, for the report
				t.Fatal("mutated state accepted")
			}
			if !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
	if _, err := NewFromSnapshot(mustJSONRoundTrip(t, good)); err != nil {
		t.Fatalf("unmutated state refused: %v", err)
	}
}

// TestRestoreRejectsImpossibleRing: the ring's control words and open flags
// are read from a file, so a state no run could hold is refused before the
// first Tick — a read marked open whose output's record already holds all
// its words, a control word naming an input the switch lacks.
func TestRestoreRejectsImpossibleRing(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 32}
	r := runnerTo(t, cfg, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: 3}, 2000, "", 200)
	var good *SwitchState
	read := -1
	for read < 0 {
		if !r.Step() {
			t.Fatal("set-up: no read wave in flight")
		}
		st, err := r.s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for stg := 1; stg < r.s.k; stg++ {
			if slot := r.s.ctrlSlot(st.Cycle, stg); st.Ctrl[slot].Kind == OpRead {
				good, read = st, slot
			}
		}
	}
	cases := []struct {
		name    string
		mutate  func(st *SwitchState)
		wantSub string
	}{
		{"open/committed-read", func(st *SwitchState) {
			st.Open = make([]bool, len(st.Ctrl))
			st.Open[read] = true
		}, "off the commit"},
		{"ctrl/bad-input", func(st *SwitchState) {
			st.Ctrl[0] = Op{Kind: OpWrite, In: 4}
		}, "Ctrl[0]"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st := mustJSONRoundTrip(t, good)
			tc.mutate(st)
			if _, err := NewFromSnapshot(st); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %v, want one mentioning %q", err, tc.wantSub)
			}
		})
	}
	if _, err := NewFromSnapshot(mustJSONRoundTrip(t, good)); err != nil {
		t.Fatalf("unmutated state refused: %v", err)
	}
}
