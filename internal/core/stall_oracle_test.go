package core

import (
	"math/bits"
	"slices"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// stallOracle is the per-cycle stall accounting, kept as the reference for
// the switch's per-input stall counts: on every cycle that ends
// arbitration with arrivals still waiting for their write waves — the
// moment the observer's stall event marks — each waiting arrival whose
// head latched before that cycle is charged one cycle. It rides on the
// observer's tracer as its sink, so it sees the switch mid-tick.
type stallOracle struct {
	s      *Switch
	stalls []int64
}

func (o *stallOracle) Event(e obs.Event) {
	if e.Kind != obs.EvStall {
		return
	}
	s := o.s
	for wi, m := range s.pendMask {
		for ; m != 0; m &= m - 1 {
			if i := wi<<6 | bits.TrailingZeros64(m); e.Cycle > s.inflight[i].head {
				o.stalls[i]++
			}
		}
	}
}

func (o *stallOracle) Close() error { return nil }

// watch installs a fresh observer on s whose tracer feeds the oracle, and
// returns it.
func (o *stallOracle) watch(s *Switch) *Observer {
	o.s = s
	ob := NewObserver(obs.NewRegistry(), s.n)
	ob.Tracer = obs.NewTracer(o, 16, 1)
	s.SetObserver(ob)
	return ob
}

// check holds the switch's three views of the stall counts — Report's
// InputStalls, Snapshot's InStalls and the pipemem_input_stall_cycles
// gauges — to the oracle after cycle c.
func (o *stallOracle) check(t *testing.T, c int64, ob *Observer) {
	t.Helper()
	s := o.s
	var res RunResult
	s.Report(&res)
	if !slices.Equal(res.InputStalls, o.stalls) {
		t.Fatalf("cycle %d: Report stalls %v, oracle %v", c, res.InputStalls, o.stalls)
	}
	for i, want := range o.stalls {
		if got := ob.InputStalls.At(i).Value(); got != want {
			t.Fatalf("cycle %d: input %d stall gauge %d, oracle %d", c, i, got, want)
		}
	}
	st, err := s.Snapshot()
	if err != nil {
		t.Fatalf("cycle %d: %v", c, err)
	}
	if !slices.Equal(st.InStalls, o.stalls) {
		t.Fatalf("cycle %d: Snapshot stalls %v, oracle %v", c, st.InStalls, o.stalls)
	}
}

// arrivalWaiting reports whether some arrival of s has waited at least
// one whole cycle for its write wave and is still waiting.
func arrivalWaiting(s *Switch) bool {
	for i := range s.inflight {
		if a := &s.inflight[i]; a.active && !a.written && a.head < s.cycle-1 {
			return true
		}
	}
	return false
}

// stallCase is one drive of the stall oracle.
type stallCase struct {
	name   string
	cfg    Config
	policy string
	tc     traffic.Config
	// tickN drives with TickN over runs of up to 2k cycles (heads in the
	// first), so the idle fast-forward is crossed too.
	tickN bool
	// cutEvery, when positive, rebuilds the switch from its snapshot every
	// cutEvery-th cycle on which an arrival has already waited.
	cutEvery int
}

// runStallOracle drives sc's switch through its schedule and a drain tail,
// checks the stall views against the oracle after every Tick or TickN, and
// returns the switch's totals so a case cannot pass vacuously.
func runStallOracle(t *testing.T, sc stallCase) (stalls int64, counts Counts, cuts int) {
	t.Helper()
	const cycles = 1500
	cfg := sc.cfg.Canonical()
	k := cfg.Stages
	sched := genSchedule(t, sc.tc, k, cycles)
	pol := func(s *Switch) {
		if sc.policy == "" {
			return
		}
		p, err := bufmgr.Parse(sc.policy)
		if err != nil {
			t.Fatal(err)
		}
		s.SetBufferPolicy(p)
	}
	s := mustSwitch(t, cfg)
	pol(s)
	o := &stallOracle{stalls: make([]int64, cfg.Ports)}
	ob := o.watch(s)
	heads := make([]*cell.Cell, cfg.Ports)
	var seq uint64
	waited := 0
	end := int64(cycles + 8*k*cfg.Cells)
	for c := int64(0); c < end; {
		n := int64(1)
		if sc.tickN {
			n = 1 + int64(seq%uint64(2*k))
		}
		hs := headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, 1)
		if n == 1 {
			s.Tick(hs)
		} else {
			s.TickN(hs, n)
		}
		c += n
		s.Drain()
		o.check(t, c-1, ob)
		if sc.cutEvery > 0 && arrivalWaiting(s) {
			if waited++; waited%sc.cutEvery == 0 {
				s = snapshotRestores(t, c-1, s)
				pol(s)
				ob = o.watch(s)
				o.check(t, c-1, ob)
				cuts++
			}
		}
	}
	if !s.Quiescent() {
		t.Fatal("the drain tail left cells behind")
	}
	for _, v := range o.stalls {
		stalls += v
	}
	return stalls, *s.Counts(), cuts
}

// TestStallsEqualPerCycleOracle: the per-input stall counts equal the
// per-cycle oracle at every cycle boundary, through Report, Snapshot and
// the metric gauges — under overruns, policy drops, link pipelining, TickN
// batches with idle fast-forwards, and checkpoint cuts taken while an
// arrival waits.
func TestStallsEqualPerCycleOracle(t *testing.T) {
	sat := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 1, Seed: 3}
	hot := traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.6, Seed: 9}
	bursty := traffic.Config{Kind: traffic.Bursty, N: 4, Load: 0.3, BurstLen: 8, Seed: 5}
	small := Config{Ports: 4, WordBits: 16, Cells: 4, CutThrough: true}
	cases := []struct {
		stallCase
		overruns, drops, cuts bool
	}{
		{stallCase: stallCase{name: "saturation-overruns", cfg: small, tc: sat}, overruns: true},
		{stallCase: stallCase{name: "dt-policy-drops", cfg: Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true}, policy: "dt:alpha=2", tc: hot}, drops: true},
		{stallCase: stallCase{name: "link-pipeline", cfg: Config{Ports: 4, WordBits: 16, Cells: 4, CutThrough: true, LinkPipeline: 3}, tc: sat}, overruns: true},
		{stallCase: stallCase{name: "tickn", cfg: small, tc: bursty, tickN: true}},
		{stallCase: stallCase{name: "checkpoint-cut", cfg: small, tc: hot, cutEvery: 5}, cuts: true},
		{stallCase: stallCase{name: "checkpoint-cut-policy", cfg: Config{Ports: 4, WordBits: 16, Cells: 8}, policy: "dt:alpha=2", tc: sat, cutEvery: 3}, cuts: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stalls, counts, cuts := runStallOracle(t, tc.stallCase)
			if stalls == 0 {
				t.Fatal("no arrival ever stalled: the case checks nothing")
			}
			if tc.overruns && counts.DropOverrun == 0 {
				t.Fatal("no overrun")
			}
			if tc.drops && counts.DropPolicy == 0 {
				t.Fatal("no policy drop")
			}
			if tc.cuts && cuts == 0 {
				t.Fatal("no checkpoint cut while an arrival waited")
			}
		})
	}
}
