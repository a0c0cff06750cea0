package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// The ECC defense layers against the reference: an ECC switch under every
// admission policy, with upsets and a stuck bank, held to refSwitch cycle by
// cycle.

// eccFaults is the fault schedule of one differential case.
type eccFaults int

const (
	eccNoFaults eccFaults = iota
	// eccMemFlips: sparse upsets, each under a wave in flight that has yet
	// to reach the upset's stage where there is one (underWave).
	eccMemFlips
	// eccStuck: bank 2 sticks mid-burst, under the waves in flight, and
	// fails every read from then on. Its cases keep the name they had when
	// a stage bypass mapped the bank out.
	eccStuck
)

func (f eccFaults) String() string {
	return [...]string{"clean", "memflips", "stuck-bypass"}[f]
}

// The drive alternates bursts of hotspot overload with idle gaps long
// enough to drain the whole buffer through the hot output.
const (
	eccBurst  = 400
	eccPeriod = 700
	eccRounds = 3
)

// eccPairConfig is the switch of the differential.
func eccPairConfig(cut bool) Config {
	return Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true, CutThrough: cut}
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

// underWave picks a fault target on purpose: the first address from off on
// with a wave in flight that has yet to reach stage st, else the first that
// still holds a queued cell, else -1.
func underWave(s *Switch, st, off int) int {
	queued := -1
	for j := 0; j < s.cfg.Cells; j++ {
		a := (off + j) % s.cfg.Cells
		for i := 1; i <= st; i++ {
			if op := &s.ctrl[s.ctrlSlot(s.cycle, i)]; op.Kind != OpNone && op.Addr == a {
				return a
			}
		}
		if queued < 0 && s.refcnt[a] > 0 {
			queued = a
		}
	}
	return queued
}

// TestECCEqualsReference: every admission policy × {no faults, sparse
// upsets, stuck bank} × {unicast, multicast} × {store-and-forward,
// cut-through}, each cycle equal to the reference.
func TestECCEqualsReference(t *testing.T) {
	policies := []string{"", "share", "static:quota=8", "dt:alpha=2", "dd:target=64", "pushout"}
	for _, pol := range policies {
		for _, faults := range []eccFaults{eccNoFaults, eccMemFlips, eccStuck} {
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
	l := newLockstep(t, cfg, pol)
	if mcast {
		l.mcastEvery = 3
	}
	var plan []eccFlip
	if faults == eccMemFlips {
		plan = eccFlipPlan(k)
	}
	stuck, applied := false, 0
	for c := int64(0); c < int64(len(sched)); c++ {
		for i, f := range plan {
			if f.cycle != c {
				continue
			}
			if a := underWave(l.sw, f.stage, 7*i); a >= 0 {
				applied++
				l.both(func(s faultSeams) { s.InjectMemoryFault(f.stage, a, f.mask) })
			}
		}
		if faults == eccStuck && !stuck && c >= eccPeriod+60 {
			stuck = true
			l.both(func(s faultSeams) { s.SetStageStuck(2, true) })
		}
		l.tick(sched[c])
		if c%50 == 49 {
			if err := l.sw.AuditInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	if len(l.log) == 0 {
		t.Fatal("nothing was delivered; the drive tests nothing")
	}
	ctr := l.sw.Counts()
	switch faults {
	case eccMemFlips:
		if applied < len(plan)/2 {
			t.Fatalf("only %d of %d upsets found a target", applied, len(plan))
		}
		if ctr.ECCCorrected+ctr.ECCUncorrectable == 0 {
			t.Fatal("no upset was ever read back; the plan tests nothing")
		}
	case eccStuck:
		if ctr.ECCUncorrectable == 0 || ctr.ECCHard == 0 {
			t.Fatalf("the stuck bank's reads were not flagged: %+v", *ctr)
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

// TestECCRunResultEqualsReference is the same comparison through the plain
// driver: core.Run's result on the switch (and its error, when an
// uncorrectable upset or a stuck bank corrupts deliveries) must be the
// reference's, faults applied before the same Ticks.
func TestECCRunResultEqualsReference(t *testing.T) {
	cfg := eccPairConfig(false)
	k := cfg.Canonical().Stages
	const cycles = 1500
	for _, faults := range []eccFaults{eccNoFaults, eccMemFlips, eccStuck} {
		t.Run(faults.String(), func(t *testing.T) {
			l := newLockstep(t, cfg, "dt:alpha=2")
			// The switch's run picks the targets; the reference's replays them.
			fired := map[int64]func(faultSeams){}
			pre := func(c int64) {
				s := l.sw
				switch {
				case faults == eccMemFlips && c%97 == 60:
					stage := int(c/97) % k
					if a := underWave(s, stage, int(c)); a >= 0 {
						mask := cell.Word(1) << uint(c/97%16)
						if c/97 == 5 {
							mask = 0x0300
						}
						fired[c] = func(f faultSeams) { f.InjectMemoryFault(stage, a, mask) }
					}
				case faults == eccStuck && c == 700:
					fired[c] = func(f faultSeams) { f.SetStageStuck(2, true) }
				}
				if f := fired[c]; f != nil {
					f(s)
				}
			}
			run := func(org Organization, pre func(int64)) (RunResult, string) {
				cs := stream(t, traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.9, HotFrac: 0.5, Seed: 31}, k)
				res, err := Run(preTicked{org, pre}, cs, cycles)
				msg := ""
				if err != nil {
					msg = err.Error()
				}
				return res, msg
			}
			gotRes, gotErr := run(l.sw, pre)
			wantRes, wantErr := run(l.ref, func(c int64) {
				if f := fired[c]; f != nil {
					f(l.ref)
				}
			})
			if err := l.sw.AuditInvariants(); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(gotRes, wantRes) || gotErr != wantErr {
				t.Fatalf("RunResult diverged:\n switch    %+v (%s)\n reference %+v (%s)", gotRes, gotErr, wantRes, wantErr)
			}
			g, w := l.sw.Counts(), &l.ref.counts
			if g.ECCCorrected != w.ECCCorrected || g.ECCUncorrectable != w.ECCUncorrectable || g.ECCHard != w.ECCHard {
				t.Fatalf("ECC counts %+v, reference %+v", *g, *w)
			}
			if faults == eccMemFlips && wantRes.Corrupt == 0 && w.ECCCorrected == 0 {
				t.Fatal("no upset was corrected; the plan tests nothing")
			}
		})
	}
}

// TestECCRestoreEveryCycle: the dirty set and the waves off the commit are
// functions of the serialized state, so a switch rebuilt at any cycle runs
// the next one exactly as the running switch does. The drive is hostile:
// upsets land on arbitrary addresses — queued, free, under a wave in flight
// — some are undone by a second flip, some are uncorrectable. At every cycle
// the switch is serialized and rebuilt, both tick the same arrivals, and the
// departures and the next serialized states must agree.
func TestECCRestoreEveryCycle(t *testing.T) {
	for _, mcast := range []bool{false, true} {
		t.Run(fmt.Sprintf("mcast=%v", mcast), func(t *testing.T) {
			cfg := Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true, CutThrough: true}
			k := cfg.Canonical().Stages
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
			cutsOpen, dirty, undone := 0, 0, 0
			for c := int64(0); c < int64(len(sched)); c++ {
				switch {
				case undo != nil:
					// The same flip again: the word is whole and nothing is
					// left to decode.
					h.sw.InjectMemoryFault(undo.stage, undo.addr, undo.mask)
					if h.sw.addrClean(undo.addr) && !h.sw.eccDirty[undo.addr] {
						undone++
					}
					undo = nil
				case c%41 == 11:
					f := faultAt{stage: next(k), addr: next(cfg.Cells), mask: 1 << uint(next(16))}
					// Mostly addresses traffic will come back to: a queued cell
					// or a wave in flight.
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
				twin := &ticknHarness{t: t, seq: h.seq, hc: make([]*cell.Cell, 4), mcastEvery: h.mcastEvery}
				if twin.sw, err = NewFromSnapshot(mustJSONRoundTrip(t, st)); err != nil {
					t.Fatalf("cycle %d: %v", c, err)
				}
				p, _ := bufmgr.Parse("dt:alpha=2")
				twin.sw.SetBufferPolicy(p)
				if twin.sw.eccDirtyN != h.sw.eccDirtyN || !slices.Equal(twin.sw.eccDirty, h.sw.eccDirty) {
					t.Fatalf("cycle %d: restore rebuilt %d dirty addresses, the running switch holds %d", c, twin.sw.eccDirtyN, h.sw.eccDirtyN)
				}
				if h.sw.openN > 0 {
					cutsOpen++
				}
				if h.sw.eccDirtyN > 0 {
					dirty++
				}
				twin.sw.Tick(twin.materialize(sched[c]))
				twin.collect()
				h.sw.Tick(h.materialize(sched[c]))
				h.collect()
				if !slices.Equal(twin.log, h.log[len(h.log)-len(twin.log):]) {
					t.Fatalf("cycle %d: departures diverged:\n restored %v\n running  %v", c, twin.log, h.log[len(h.log)-len(twin.log):])
				}
				a, err := h.sw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				b, err := twin.sw.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(a, b) {
					t.Fatalf("cycle %d: the restored switch ran the cycle differently:\n%s", c, stateDiff(a, b))
				}
				if c%50 == 49 {
					if err := h.sw.AuditInvariants(); err != nil {
						t.Fatalf("cycle %d: %v", c, err)
					}
				}
			}
			if cutsOpen < 20 || dirty < 20 || undone == 0 {
				t.Fatalf("%d cuts with waves off the commit, %d inside a dirty window, %d upsets undone: the drive tests nothing", cutsOpen, dirty, undone)
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

// TestECCUpsetUnderWave: an upset that lands under a read wave in flight is
// met by that wave at its own stage — decoded, corrected, scrubbed and
// counted there — so the wave delivers intact and the next wave over the
// address finds the word whole. Here the address holds a two-copy multicast
// cell; the upset lands at the last stage while the first copy's read wave
// is in flight, committed at initiation.
func TestECCUpsetUnderWave(t *testing.T) {
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
		if s.refcnt[a] == 2 {
			addr = a
		}
	}
	if addr < 0 || !s.AddrStable(addr) {
		t.Fatalf("set-up: address %d", addr)
	}

	// Release the outputs and stop one cycle later: exactly one copy's read
	// wave has been initiated.
	gateAll(s, true)
	s.Tick(nil)
	gateAll(s, false)
	if s.refcnt[addr] != 1 || s.openN != 0 {
		t.Fatalf("set-up: %d copies still queued, %d waves off the commit; want the first read wave in flight, committed", s.refcnt[addr], s.openN)
	}
	s.InjectMemoryFault(k-1, addr, 0x0040)
	if s.eccDirtyN != 1 {
		t.Fatalf("upset left dirty=%d", s.eccDirtyN)
	}
	var deps []Departure
	for i := 0; i < k-2; i++ {
		s.Tick(nil)
	}
	if n := s.Counts().ECCCorrected; n != 0 {
		t.Fatalf("corrected=%d before the wave reached the upset's stage", n)
	}
	for i := 0; i < k+2; i++ {
		s.Tick(nil)
		deps = append(deps, s.Drain()...)
	}
	if len(deps) != 1 || !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatalf("first copy: %d departures, want one intact", len(deps))
	}
	if n := s.Counts().ECCCorrected; n != 1 || s.eccDirtyN != 0 {
		t.Fatalf("the wave in flight did not meet the upset: corrected=%d dirty=%d", n, s.eccDirtyN)
	}

	// The second copy finds the scrubbed word.
	gateAll(s, true)
	deps = deps[:0]
	for i := 0; i < 3*k; i++ {
		s.Tick(nil)
		deps = append(deps, s.Drain()...)
	}
	if len(deps) != 1 || !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatalf("second copy: %d departures, want one intact", len(deps))
	}
	if c, u := s.counts.ECCCorrected, s.counts.ECCUncorrectable; c != 1 || u != 0 {
		t.Fatalf("second wave: corrected=%d uncorrectable=%d, want 1 and 0", c, u)
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
				events := s.counts.ECCCorrected + s.counts.ECCUncorrectable + s.counts.ECCHard
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

// stateDiff lists the fields in which two serialized states differ.
func stateDiff(a, b *SwitchState) string {
	va, vb := reflect.ValueOf(a).Elem(), reflect.ValueOf(b).Elem()
	out := ""
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out += fmt.Sprintf("%s:\n  %v\n  %v\n", va.Type().Field(i).Name, va.Field(i).Interface(), vb.Field(i).Interface())
		}
	}
	return out
}
