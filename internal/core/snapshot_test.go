package core

import (
	"encoding/json"
	"reflect"
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
	s.counter.Set("offered", s.counter.Get("offered")+1)
	if err := s.AuditInvariants(); err == nil {
		t.Fatal("conservation violation went undetected")
	}

	// §3.2 hazard: force two stages onto one bank in the upcoming cycle.
	s = mk()
	c := s.Cycle()
	s.ctrl[s.ctrlSlot(c, 0)] = Op{Kind: OpWrite, In: 0, Addr: 0}
	s.ctrl[s.ctrlSlot(c, 1)] = Op{Kind: OpRead, Out: 0, Addr: 0, Remap: true}
	s.halved = true
	s.stageDown[1] = true
	s.addrLimit = s.Config().Cells / 2
	if err := s.auditHazards(); err == nil {
		t.Fatal("bank collision went undetected")
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
	} {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		cs, _ := traffic.NewCellStream(traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}, s.Config().Stages)
		r := NewRunner(s, cs, 1<<20)
		for i := 0; i < 1024; i++ {
			r.Step()
		}
		if err := s.AuditInvariants(); err != nil {
			t.Fatal(err)
		}
		if allocs := testing.AllocsPerRun(2000, func() {
			if err := s.AuditInvariants(); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Fatalf("ECC=%v: AuditInvariants allocates %.2f/op on a warm switch, want 0", cfg.ECC, allocs)
		}
	}
}

// TestRestoreRejectsUnusableCells: every cell a restored switch will
// dereference — a queued descriptor's, an active arrival's, an egress
// record's — must be present and exactly k words, and an output carries at
// most one egress record of at most k words. NewFromSnapshot used to accept
// such states and the next Tick dereferenced nil; it must refuse them with
// an error, before any Tick.
func TestRestoreRejectsUnusableCells(t *testing.T) {
	// Store-and-forward at load 0.9 on the per-stage engine: after 300
	// cycles some queue, some input row and some egress slot are busy.
	r := runnerTo(t, Config{Ports: 4, WordBits: 16, Cells: 32}, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: 3}, 2000, "", 0)
	r.s.forceExact()
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
			if st.Inflight[i].Active {
				return &st.Inflight[i]
			}
		}
		t.Fatal("set-up: no active arrival")
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
