package core

import (
	"fmt"
	"slices"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/stats"
	"pipemem/internal/traffic"
)

// faultSeams are the injection seams Switch and the reference share.
type faultSeams interface {
	InjectMemoryFault(stage, addr int, mask cell.Word)
	SetStageStuck(st int, on bool) bool
	InjectInputRegisterFault(in, word int, mask cell.Word)
}

// lockstep drives a Switch and the reference with the same arrivals and the
// same faults and holds them equal after every cycle: the departures (cell,
// words, output, head-in, head-out, tail-out, initiation delay), the
// counters the reference keeps, and the occupancy the arbiters see.
type lockstep struct {
	t   testing.TB
	sw  *Switch
	ref *refSwitch
	seq uint64
	// mcastEvery, when positive, gives every mcastEvery-th cell a second
	// destination (the next output round).
	mcastEvery uint64
	// log holds one line per departure, in ticknHarness.collect's format.
	log []string
	// line is §4.3's link pipelining, a delay line in front of the reference,
	// which has none: heads reach it LinkPipeline cycles after the switch
	// takes them, and its departures are stamped at the switch boundary.
	line [][]*cell.Cell
	lp   int64
}

// newLockstep pairs a switch with the reference; cfg may pipeline its links.
func newLockstep(t testing.TB, cfg Config, polSpec string) *lockstep {
	t.Helper()
	policy := func() bufmgr.Policy {
		if polSpec == "" {
			return nil
		}
		p, err := bufmgr.Parse(polSpec)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p := policy(); p != nil {
		s.SetBufferPolicy(p)
	}
	lp := cfg.LinkPipeline
	cfg.LinkPipeline = 0
	return &lockstep{t: t, sw: s, ref: newRef(cfg, policy()), line: make([][]*cell.Cell, lp), lp: int64(lp)}
}

// both applies a fault to the switch and to the reference.
func (l *lockstep) both(f func(faultSeams)) {
	f(l.sw)
	f(l.ref)
}

// heads builds the arrival vector for one schedule row (nil for none).
func (l *lockstep) heads(row []int) []*cell.Cell {
	if row == nil {
		return nil
	}
	cfg := l.sw.Config()
	hc := make([]*cell.Cell, cfg.Ports)
	for i, dst := range row {
		if dst != traffic.NoArrival {
			l.seq++
			hc[i] = cell.New(l.seq, i, dst, cfg.Stages, cfg.WordBits)
			if l.mcastEvery > 0 && l.seq%l.mcastEvery == 0 {
				hc[i].Copies = []int{(dst + 1) % cfg.Ports}
			}
		}
	}
	return hc
}

// tick runs one cycle on both sides and compares them.
func (l *lockstep) tick(row []int) {
	l.t.Helper()
	hc := l.heads(row)
	l.sw.Tick(hc)
	if l.lp > 0 {
		l.line = append(l.line, hc)
		hc, l.line = l.line[0], l.line[1:]
	}
	l.ref.Tick(hc)
	l.check()
}

// check compares the two sides at the cycle boundary just reached.
func (l *lockstep) check() {
	l.t.Helper()
	c := l.ref.cycle - 1
	got, want := l.sw.Drain(), l.ref.Drain()
	if len(got) != len(want) {
		l.t.Fatalf("cycle %d: %d departures, reference %d", c, len(got), len(want))
	}
	for i := range got {
		want[i].HeadIn, want[i].HeadOut, want[i].TailOut = want[i].HeadIn-l.lp, want[i].HeadOut+l.lp, want[i].TailOut+l.lp
		g, w := depLine(got[i]), depLine(want[i])
		if g != w || !slices.Equal(got[i].Cell.Words, want[i].Cell.Words) {
			l.t.Fatalf("cycle %d: departure\n got  %s %x\n want %s %x", c, g, got[i].Cell.Words, w, want[i].Cell.Words)
		}
		l.log = append(l.log, g)
	}
	// The reference keeps every count but the multicast copies and the
	// words off the commit.
	g := l.sw.counts
	g.MulticastCopies, g.StageWords = 0, 0
	if g != l.ref.counts {
		l.t.Fatalf("cycle %d: counts %+v, reference %+v", c, g, l.ref.counts)
	}
	res := l.ref.Resident()
	for _, hc := range l.line {
		for _, h := range hc {
			if h != nil {
				res++
			}
		}
	}
	if l.sw.Buffered() != l.ref.Buffered() || l.sw.FreeCells() != l.ref.free.Free() || l.sw.Resident() != res {
		l.t.Fatalf("cycle %d: buffered/free/resident %d/%d/%d, reference %d/%d/%d", c,
			l.sw.Buffered(), l.sw.FreeCells(), l.sw.Resident(), l.ref.Buffered(), l.ref.free.Free(), res)
	}
}

// depLine renders a departure as ticknHarness.collect logs it.
func depLine(d Departure) string {
	ok := d.Cell != nil && d.Expected != nil && d.Cell.Equal(d.Expected)
	return fmt.Sprintf("seq=%d out=%d in=%d headout=%d tailout=%d delay=%d intact=%v",
		d.Expected.Seq, d.Output, d.HeadIn, d.HeadOut, d.TailOut, d.InitDelay, ok)
}

// TestWideSwitchOnWaveCommit: a 40-port switch has k = 80 stages, more ring
// slots than a machine word has bits. It runs on the wave commit all the
// same — no word off it — equals the reference every cycle, and once empty
// reaches TickN's idle fast-forward.
func TestWideSwitchOnWaveCommit(t *testing.T) {
	cfg := Config{Ports: 40, WordBits: 16, Cells: 96, CutThrough: true}
	k := cfg.Canonical().Stages
	sched := genSchedule(t, traffic.Config{Kind: traffic.Bernoulli, N: 40, Load: 0.8, Seed: 40}, k, 6*k)
	l := newLockstep(t, cfg, "")
	for c := int64(0); c < int64(len(sched))+int64(4*k); c++ {
		l.tick(rowAt(sched, c))
		if c%37 == 0 {
			if err := l.sw.AuditInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	if len(l.log) == 0 || l.sw.counts.StageWords != 0 {
		t.Fatalf("%d departures, %d words off the wave commit; want some and none", len(l.log), l.sw.counts.StageWords)
	}
	if !l.sw.idle() {
		t.Fatal("the drained switch is not idle")
	}
	c := l.sw.Cycle()
	l.sw.TickN(nil, 1<<40)
	if l.sw.Cycle() != c+1<<40 {
		t.Fatalf("TickN advanced %d cycles, want %d", l.sw.Cycle()-c, int64(1)<<40)
	}
}

// preTicked runs a hook before every Tick of an organization, with the
// cycle about to execute: the PreTick seam, for core.Run.
type preTicked struct {
	Organization
	pre func(cycle int64)
}

func (p preTicked) Tick(heads []*cell.Cell) {
	p.pre(p.Cycle())
	p.Organization.Tick(heads)
}

// The reference as an Organization, so that core.Run drives it as it drives
// Switch. Drain serves the lockstep, which compares Departure records.

func (r *refSwitch) Drain() []Departure               { d := r.done; r.done = nil; return d }
func (r *refSwitch) SetDepartureSink(f DepartureSink) { r.sink = f }
func (r *refSwitch) CutLatency() *stats.Hist          { return r.cutLat }
func (r *refSwitch) Buffered() (b int) {
	for _, q := range r.q {
		b += len(q)
	}
	return b
}
func (r *refSwitch) Resident() int {
	res := r.Buffered()
	for i, a := range r.arr {
		if a.active && !a.written {
			res++
		}
		if r.eg[i] != nil {
			res++
		}
	}
	return res
}
func (r *refSwitch) DroppedCells() (d int64) {
	return r.counts.DropOverrun + r.counts.DropPolicy + r.counts.DropPushout
}
func (r *refSwitch) Geometry() Geometry {
	return Geometry{Ports: r.n, CellWords: r.k, WordBits: r.cfg.WordBits, Cells: r.cfg.Cells}
}
func (r *refSwitch) Report(res *RunResult) {
	res.DropOverrun, res.DropPolicy, res.DropPushOut = r.counts.DropOverrun, r.counts.DropPolicy, r.counts.DropPushout
	res.InputStalls, res.InputDrops, res.OutputDrops = append([]int64(nil), r.inStalls...), append([]int64(nil), r.inDrops...), append([]int64(nil), r.outDrops...)
	res.MeanInitDelay = r.initDelay.Mean()
}
