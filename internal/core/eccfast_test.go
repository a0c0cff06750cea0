package core

import (
	"fmt"
	"reflect"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// The ECC seam of the two-mode engine: an ECC switch may batch exactly
// while no stored word carries an upset. These tests drive one ECC switch
// twice — free to batch, and pinned to the per-stage path by forceExact —
// and require the two to be indistinguishable from outside.

// eccFaults is the fault schedule of one differential case.
type eccFaults int

const (
	eccNoFaults eccFaults = iota
	// eccMemFlips: sparse upsets, each in a fully written word that is still
	// queued and has no wave in flight over it (the AddrStable regime; the
	// last condition matters for multicast, where a copy's read wave may be
	// in flight while others still queue).
	eccMemFlips
	// eccStuckBypass: bank 2 sticks mid-burst, fails its reads, and is
	// mapped out. It sticks between waves (bankIdle): a wave the batched
	// path committed at initiation has already taken its words and would
	// not see a fault landing under it.
	eccStuckBypass
)

func (f eccFaults) String() string {
	return [...]string{"clean", "memflips", "stuck-bypass"}[f]
}

// The drive alternates bursts of hotspot overload with idle gaps long
// enough to drain the whole buffer through the hot output, so the
// free-to-batch switch gets the initiation-free stretch its exact→batched
// hand-over waits for.
const (
	eccBurst  = 400
	eccPeriod = 700
	eccRounds = 3
)

// eccPairConfig is the switch both sides of a pair run. The bypass
// threshold is high enough that, before the stuck bank is mapped out, reads
// reach words written after it stuck — into rows whose previous contents
// the two engines left different.
func eccPairConfig(cut bool) Config {
	return Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true, BypassThreshold: 40, CutThrough: cut}
}

// eccFlip is one scheduled upset: stage and mask are fixed, the address is
// resolved at fire time from a rotating offset.
type eccFlip struct {
	cycle int64
	stage int
	mask  cell.Word
}

func eccFlipPlan(k int) []eccFlip {
	var plan []eccFlip
	for r := 0; r < eccRounds; r++ {
		base := int64(r * eccPeriod)
		plan = append(plan,
			eccFlip{base + 90, (3 * r) % k, 1 << uint(r)},
			eccFlip{base + 91, (3*r + 1) % k, 0x8000},
			eccFlip{base + 260, k - 1, 0x0010},
		)
	}
	// One double flip: uncorrectable, so the word stays dirty past its read
	// wave and only a rewrite of the address closes the window.
	plan = append(plan, eccFlip{eccPeriod + 180, 1, 0x0300})
	return plan
}

// stableQuietAddr picks the flip target: the first address from off on
// that is AddrStable, clean at stage, and has no live control word.
func stableQuietAddr(s *Switch, stage, off int) int {
	cells := s.cfg.Cells
scan:
	for j := 0; j < cells; j++ {
		a := (off + j) % cells
		if !s.AddrStable(a) || !s.MemoryClean(stage, a) {
			continue
		}
		for i := range s.ctrl {
			if s.ctrl[i].Kind != OpNone && s.ctrl[i].Addr == a {
				continue scan
			}
		}
		return a
	}
	return -1
}

// bankIdle reports that no wave in flight has yet to reach bank b: the
// waves now at stages 1…b were initiated late enough to still cross it.
func bankIdle(s *Switch, b int) bool {
	for st := 1; st <= b; st++ {
		if s.ctrl[s.ctrlSlot(s.cycle, st)].Kind != OpNone {
			return false
		}
	}
	return true
}

// scrubDeadState blanks what a switch pinned to the per-stage path and one
// free to batch may legitimately leave different: bank rows (and their
// check bits) no queued cell will read — the batched path skips deposits
// nobody reads — and output registers that have already driven their word
// (it never loads them) — and the pin itself. For this pairing only: two
// drives that pick the same engine every cycle (TickN against Tick, a
// resumed run against the uninterrupted one) are compared register residue
// and all (scrubFreedMem).
func scrubDeadState(s *Switch, st *SwitchState) {
	st.ForcedExact = false
	live := make([]bool, len(s.mem))
	for a, rc := range st.Refcnt {
		if rc == 0 {
			continue
		}
		for stg := 0; stg < s.k; stg++ {
			b, row := s.bankFor(stg, a, true)
			live[s.memIdx(b, row)] = true
		}
	}
	for b := range st.Mem {
		for a := range st.Mem[b] {
			if !live[s.memIdx(b, a)] {
				st.Mem[b][a] = 0
				if st.ECCMem != nil {
					st.ECCMem[b][a] = 0
				}
			}
		}
	}
	for i := range st.OutReg {
		if !st.OutReg[i].Valid {
			st.OutReg[i] = OutWordState{}
		}
	}
}

// eccStateLine is the per-cycle fingerprint logged next to the departures.
func eccStateLine(s *Switch) string {
	h := s.Health()
	return fmt.Sprintf("c=%d buf=%d free=%d drop=%d corrected=%d uncorrectable=%d hard=%d down=%v",
		s.Cycle(), s.Buffered(), s.FreeCells(), s.DroppedCells(),
		h.ECCCorrected, h.ECCUncorrectable, h.ECCHard, h.Bypassed)
}

func TestECCFastEqualsExact(t *testing.T) {
	policies := []string{"", "share", "static:quota=8", "dt:alpha=2", "dd:target=64", "pushout"}
	for _, pol := range policies {
		for _, faults := range []eccFaults{eccNoFaults, eccMemFlips, eccStuckBypass} {
			for _, mcast := range []bool{false, true} {
				for _, cut := range []bool{false, true} {
					name := fmt.Sprintf("%s/%v/mcast=%v/cut=%v", pol, faults, mcast, cut)
					if pol == "" {
						name = "unmanaged" + name
					}
					pol, faults, mcast, cut := pol, faults, mcast, cut
					t.Run(name, func(t *testing.T) {
						eccDifferential(t, pol, faults, mcast, cut)
					})
				}
			}
		}
	}
}

func eccDifferential(t *testing.T, pol string, faults eccFaults, mcast, cut bool) {
	cfg := eccPairConfig(cut)
	k := cfg.Canonical().Stages
	tc := traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.5, Seed: 29}
	sched := genSchedule(t, tc, k, eccRounds*eccPeriod)
	for c := range sched {
		if c%eccPeriod >= eccBurst {
			sched[c] = nil
		}
	}

	pin := newTicknHarness(t, cfg, pol)
	pin.sw.forceExact()
	free := newTicknHarness(t, cfg, pol)
	pair := []*ticknHarness{pin, free}
	if mcast {
		pin.mcastEvery, free.mcastEvery = 3, 3
	}

	var plan []eccFlip
	if faults == eccMemFlips {
		plan = eccFlipPlan(k)
	}
	stuckAt := int64(-1)
	applied, lastFlip := 0, int64(-1)
	dirtyWindow, batchedAfterLastFlip, batchedAfterStuck := false, false, false

	for c := int64(0); c < int64(len(sched)); c++ {
		for i, f := range plan {
			if f.cycle != c {
				continue
			}
			a := stableQuietAddr(pin.sw, f.stage, 7*i)
			if b := stableQuietAddr(free.sw, f.stage, 7*i); a != b {
				t.Fatalf("cycle %d: flip target %d pinned, %d free to batch", c, a, b)
			}
			if a < 0 {
				continue
			}
			applied++
			lastFlip, batchedAfterLastFlip = c, false
			for _, h := range pair {
				h.sw.InjectMemoryFault(f.stage, a, f.mask)
			}
			if free.sw.fastMode || free.sw.eccDirtyN == 0 {
				t.Fatalf("cycle %d: upset at address %d left the batched path on (fast=%v dirty=%d)",
					c, a, free.sw.fastMode, free.sw.eccDirtyN)
			}
		}
		if faults == eccStuckBypass && stuckAt < 0 && c >= eccPeriod+60 && bankIdle(pin.sw, 2) {
			stuckAt = c
			for _, h := range pair {
				h.sw.SetStageStuck(2, true)
			}
		}
		for _, h := range pair {
			h.sw.Tick(h.materialize(sched[c]))
			h.collect()
			h.log = append(h.log, eccStateLine(h.sw))
		}
		if pin.sw.fastMode {
			t.Fatalf("cycle %d: the pinned switch is batching", c)
		}
		if free.sw.eccDirtyN > 0 {
			dirtyWindow = true
			if free.sw.fastMode {
				t.Fatalf("cycle %d: batching with %d dirty addresses", c, free.sw.eccDirtyN)
			}
		}
		if free.sw.fastMode {
			if c > lastFlip {
				batchedAfterLastFlip = true
			}
			if stuckAt >= 0 {
				batchedAfterStuck = true
			}
		}
		last := len(pin.log) - 1
		if pin.log[last] != free.log[last] {
			t.Fatalf("diverged:\n pinned %s\n free   %s", pin.log[last], free.log[last])
		}
		// (The audit's conservation and capacity clauses assume unicast.)
		if c%50 == 49 && !mcast {
			for _, h := range pair {
				if err := h.sw.AuditInvariants(); err != nil {
					t.Fatalf("cycle %d (fast=%v): %v", c, h.sw.fastMode, err)
				}
			}
		}
		// The end of every idle gap is a quiescent cut: the complete
		// serialized state must agree there, dead storage aside.
		if c%eccPeriod == eccPeriod-1 {
			checkTicknLogs(t, pin, free)
			states := make([]*SwitchState, len(pair))
			for i, h := range pair {
				if !h.sw.Quiescent() {
					t.Fatalf("cycle %d: idle gap too short to drain the switch", c)
				}
				st, err := h.sw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				scrubDeadState(h.sw, st)
				states[i] = st
			}
			if !reflect.DeepEqual(states[0], states[1]) {
				t.Fatalf("cycle %d: serialized state diverged:\n pinned %+v\n free   %+v", c, states[0], states[1])
			}
			if !reflect.DeepEqual(pin.sw.Health(), free.sw.Health()) {
				t.Fatalf("cycle %d: health diverged:\n pinned %+v\n free   %+v", c, pin.sw.Health(), free.sw.Health())
			}
		}
	}

	if len(pin.log) == len(sched) {
		t.Fatal("nothing was delivered; the drive tests nothing")
	}
	switch faults {
	case eccNoFaults:
		if !batchedAfterLastFlip {
			t.Fatal("the free switch never batched")
		}
	case eccMemFlips:
		if applied < len(plan)/2 {
			t.Fatalf("only %d of %d upsets found a target", applied, len(plan))
		}
		if got := pin.sw.Health().ECCCorrected + pin.sw.Health().ECCUncorrectable; got == 0 {
			t.Fatal("no upset was ever read back; the plan tests nothing")
		}
		if !dirtyWindow {
			t.Fatal("no dirty window was observed")
		}
		if !batchedAfterLastFlip || free.sw.eccDirtyN != 0 {
			t.Fatalf("the free switch did not return to batching after its last upset was scrubbed (dirty=%d)", free.sw.eccDirtyN)
		}
	case eccStuckBypass:
		if h := pin.sw.Health(); !h.Degraded || len(h.Bypassed) != 1 || h.Bypassed[0] != 2 {
			t.Fatalf("the stuck bank was not mapped out: %+v", h)
		}
		if batchedAfterStuck {
			t.Fatal("batching resumed behind a stuck bank")
		}
	}
}

// checkTicknLogs compares two harness logs line by line.
func checkTicknLogs(t *testing.T, ref, got *ticknHarness) {
	t.Helper()
	n := len(ref.log)
	if len(got.log) < n {
		n = len(got.log)
	}
	for i := 0; i < n; i++ {
		if ref.log[i] != got.log[i] {
			t.Fatalf("log line %d diverged:\n %s\n %s", i, ref.log[i], got.log[i])
		}
	}
	if len(ref.log) != len(got.log) {
		t.Fatalf("log lengths diverged: %d vs %d", len(ref.log), len(got.log))
	}
}

// TestECCFastEqualsExactRunResult is the same pairing through the
// production driver: RunTraffic's result (and its error, when an
// uncorrectable upset or a stuck bank corrupts deliveries) must not depend
// on which engine ran.
func TestECCFastEqualsExactRunResult(t *testing.T) {
	cfg := eccPairConfig(false)
	k := cfg.Canonical().Stages
	const cycles = 1500
	for _, faults := range []eccFaults{eccNoFaults, eccMemFlips, eccStuckBypass} {
		t.Run(faults.String(), func(t *testing.T) {
			run := func(pinned bool) (RunResult, string, Health) {
				h := newTicknHarness(t, cfg, "dt:alpha=2")
				if pinned {
					h.sw.forceExact()
				}
				cs := stream(t, traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.5, Seed: 31}, k)
				r := NewRunner(h.sw, cs, cycles)
				r.PreTick = func(c int64) {
					switch {
					case faults == eccMemFlips && c%97 == 60:
						stage := int(c/97) % k
						if a := stableQuietAddr(h.sw, stage, int(c)); a >= 0 {
							mask := cell.Word(1) << uint(c/97%16)
							if c/97 == 5 {
								mask = 0x0300
							}
							h.sw.InjectMemoryFault(stage, a, mask)
						}
					case faults == eccStuckBypass && c >= 700 && h.sw.stuck == nil && bankIdle(h.sw, 2):
						h.sw.SetStageStuck(2, true)
					}
				}
				res, err := r.Result()
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				if err := h.sw.AuditInvariants(); err != nil {
					t.Fatal(err)
				}
				return res, msg, h.sw.Health()
			}
			wantRes, wantErr, wantHealth := run(true)
			gotRes, gotErr, gotHealth := run(false)
			if !reflect.DeepEqual(gotRes, wantRes) || gotErr != wantErr {
				t.Fatalf("RunResult diverged:\n pinned %+v (%s)\n free   %+v (%s)", wantRes, wantErr, gotRes, gotErr)
			}
			if !reflect.DeepEqual(gotHealth, wantHealth) {
				t.Fatalf("health diverged:\n pinned %+v\n free   %+v", wantHealth, gotHealth)
			}
			if faults == eccMemFlips && wantHealth.ECCCorrected == 0 {
				t.Fatal("no upset was corrected; the plan tests nothing")
			}
		})
	}
}

// TestECCRestorePicksSameEngine: the dirty set is derived state, rebuilt on
// restore from the stored words alone, yet a resumed switch must run every
// cycle on the engine the uninterrupted one ran it on (the two leave
// different register residue). The drive is hostile to that: upsets land
// on arbitrary addresses — queued, free, under a wave in flight — some are
// undone by a second flip, some are uncorrectable. At every cycle the
// switch is serialized and rebuilt, and the rebuilt copy's choice for the
// coming cycle is compared with the original's.
func TestECCRestorePicksSameEngine(t *testing.T) {
	for _, mcast := range []bool{false, true} {
		t.Run(fmt.Sprintf("mcast=%v", mcast), func(t *testing.T) {
			cfg := Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true, CutThrough: true}
			k := cfg.Canonical().Stages
			// Light enough that stretches of k initiation-free cycles — what
			// the hand-over back to the batched path waits for — keep coming.
			tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.3, Seed: 37}
			sched := genSchedule(t, tc, k, 3000)
			h := newTicknHarness(t, cfg, "dt:alpha=2")
			if mcast {
				h.mcastEvery = 3
			}
			rng := uint64(0x9e3779b97f4a7c15)
			next := func(n int) int {
				rng = rng*6364136223846793005 + 1442695040888963407
				return int(rng >> 33 % uint64(n))
			}
			var undo *faultAt
			entered, left, scrubbedAhead, undone := 0, 0, 0, 0
			for c := int64(0); c < int64(len(sched)); c++ {
				was := h.sw.fastMode
				switch {
				case undo != nil:
					// The same flip again: the word is whole and nothing is
					// left to decode, whatever the flag said a cycle ago.
					h.sw.InjectMemoryFault(undo.stage, undo.addr, undo.mask)
					if h.sw.addrClean(undo.addr) && !h.sw.eccDirty[undo.addr] {
						undone++
					}
					undo = nil
				case c%41 == 11:
					f := faultAt{stage: next(k), addr: next(cfg.Cells), mask: 1 << uint(next(16))}
					// Mostly addresses traffic will come back to: a queued cell
					// or a wave in flight (a free address holds its upset, and
					// the exact path, until it is handed out again).
					if busy := busyAddrs(h.sw); len(busy) > 0 && next(8) != 0 {
						f.addr = busy[next(len(busy))]
					}
					if next(8) == 0 {
						f.mask |= f.mask<<1 | 1 // uncorrectable
					}
					h.sw.InjectMemoryFault(f.stage, f.addr, f.mask)
					if next(4) == 0 {
						undo = &f
					}
				}

				st, err := h.sw.Snapshot()
				if err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				twin, err := NewFromSnapshot(st)
				if err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				for a, flagged := range twin.eccDirty {
					if flagged && !h.sw.eccDirty[a] {
						t.Fatalf("cycle %d: restore flagged address %d, which the running switch holds clean", c, a)
					}
				}
				if twin.eccDirtyN < h.sw.eccDirtyN {
					scrubbedAhead++ // cleaned by a wave still in flight
				}

				h.sw.Tick(h.materialize(sched[c]))
				h.collect()
				twin.Tick(nil) // the engine is chosen before arrivals are looked at
				if twin.fastMode != h.sw.fastMode {
					t.Fatalf("cycle %d: the running switch ticked with fast=%v (dirty=%d), its restored copy with fast=%v (dirty=%d)",
						c, h.sw.fastMode, h.sw.eccDirtyN, twin.fastMode, twin.eccDirtyN)
				}
				if h.sw.fastMode && !was {
					entered++
				} else if was && !h.sw.fastMode {
					left++
				}
				if c%50 == 49 && !mcast {
					if err := h.sw.AuditInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", c, err)
					}
				}
			}
			if entered < 4 || left < 4 {
				t.Fatalf("engine changed hands %d/%d times; the drive tests nothing", entered, left)
			}
			if scrubbedAhead == 0 {
				t.Fatal("no cut fell between a scrub and its wave's retirement")
			}
			if undone == 0 {
				t.Fatal("no upset was undone in place")
			}
		})
	}
}

// busyAddrs lists the addresses with a queued copy or a wave in flight.
func busyAddrs(s *Switch) []int {
	var busy []int
	for a := 0; a < s.cfg.Cells; a++ {
		live := s.refcnt[a] > 0
		for i := range s.ctrl {
			live = live || s.ctrl[i].Kind != OpNone && s.ctrl[i].Addr == a
		}
		if live {
			busy = append(busy, a)
		}
	}
	return busy
}

// TestECCUpsetUnderCommittedWave pins the documented caveat of the seam: a
// wave the batched path committed took its words at initiation, so an upset
// landing under it is not seen by that wave but by the next one over the
// address. Here the address holds a two-copy multicast cell; the upset
// lands while the first copy's read wave is in flight, committed.
func TestECCUpsetUnderCommittedWave(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, ECC: true}
	s := mustSwitch(t, cfg)
	k := s.Config().Stages
	gateAll(s, false)

	c := cell.New(1, 0, 1, k, cfg.WordBits)
	c.Copies = []int{2}
	heads := make([]*cell.Cell, cfg.Ports)
	heads[0] = c
	s.Tick(heads)
	for i := 0; i < 3*k; i++ {
		s.Tick(nil)
	}
	addr := -1
	for a := 0; a < cfg.Cells; a++ {
		if s.QueuedAt(a) == 2 {
			addr = a
		}
	}
	if addr < 0 || !s.AddrStable(addr) || !s.fastMode {
		t.Fatalf("set-up: address %d, fast=%v", addr, s.fastMode)
	}

	// Release the outputs and stop one cycle later: exactly one copy's read
	// wave has been initiated — and committed whole by the batched path.
	gateAll(s, true)
	s.Tick(nil)
	gateAll(s, false)
	if s.QueuedAt(addr) != 1 || !s.fastMode {
		t.Fatalf("set-up: %d copies still queued, fast=%v; want the first read wave in flight", s.QueuedAt(addr), s.fastMode)
	}
	last := k - 1
	s.InjectMemoryFault(last, addr, 0x0040)
	if s.fastMode || s.eccDirtyN != 1 {
		t.Fatalf("upset left fast=%v dirty=%d", s.fastMode, s.eccDirtyN)
	}
	var deps []Departure
	for i := 0; i < 2*k; i++ {
		s.Tick(nil)
		deps = append(deps, s.Drain()...)
	}
	if len(deps) != 1 || !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatalf("first copy: %d departures, want one intact", len(deps))
	}
	if h := s.Health(); h.ECCCorrected != 0 || s.eccDirtyN != 1 || s.fastMode {
		t.Fatalf("the committed wave saw the upset: corrected=%d dirty=%d fast=%v", h.ECCCorrected, s.eccDirtyN, s.fastMode)
	}

	// The second copy's wave runs on the exact path, corrects the word and
	// scrubs it; its retirement closes the window and batching resumes.
	gateAll(s, true)
	deps = deps[:0]
	for i := 0; i < 3*k; i++ {
		s.Tick(nil)
		deps = append(deps, s.Drain()...)
	}
	if len(deps) != 1 || !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatalf("second copy: %d departures, want one intact", len(deps))
	}
	if h := s.Health(); h.ECCCorrected != 1 || h.ECCUncorrectable != 0 {
		t.Fatalf("second wave: corrected=%d uncorrectable=%d, want 1 and 0", h.ECCCorrected, h.ECCUncorrectable)
	}
	if s.eccDirtyN != 0 || !s.fastMode {
		t.Fatalf("window still open after the scrub: dirty=%d fast=%v", s.eccDirtyN, s.fastMode)
	}
}

// TestStuckBankTakesWrites pins the stuck-at model: the fault sits on the
// bank's data lines, not in its array. A write wave crossing the bank while
// it is stuck still lands, so once the fault clears the cell reads back
// whole with no ECC event — and while it lasts, the same read fails its
// check bits instead.
func TestStuckBankTakesWrites(t *testing.T) {
	for _, ecc := range []bool{false, true} {
		for _, clear := range []bool{true, false} {
			t.Run(fmt.Sprintf("ecc=%v/cleared=%v", ecc, clear), func(t *testing.T) {
				cfg := Config{Ports: 4, WordBits: 16, Cells: 16, ECC: ecc}
				s := mustSwitch(t, cfg)
				k := s.Config().Stages
				gateAll(s, false)

				s.SetStageStuck(2, true)
				heads := make([]*cell.Cell, cfg.Ports)
				heads[0] = cell.New(1, 0, 1, k, cfg.WordBits)
				s.Tick(heads)
				for i := 0; i < 3*k; i++ {
					s.Tick(nil)
				}
				if s.Buffered() != 1 {
					t.Fatalf("set-up: %d cells buffered, want the one written through the stuck bank", s.Buffered())
				}
				if clear {
					s.SetStageStuck(2, false)
				}
				gateAll(s, true)
				var deps []Departure
				for i := 0; i < 3*k; i++ {
					s.Tick(nil)
					deps = append(deps, s.Drain()...)
				}
				if len(deps) != 1 {
					t.Fatalf("%d departures, want 1", len(deps))
				}
				intact := deps[0].Cell.Equal(deps[0].Expected)
				h := s.Health()
				events := h.ECCCorrected + h.ECCUncorrectable + h.ECCHard
				if clear {
					if !intact || events != 0 {
						t.Fatalf("after the fault cleared: intact=%v, %d ECC events; the write did not land", intact, events)
					}
					return
				}
				if intact {
					t.Fatal("a read through stuck data lines came back whole")
				}
				if ecc && events == 0 {
					t.Fatal("ECC let an all-ones word through unflagged")
				}
			})
		}
	}
}
