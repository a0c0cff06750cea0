package core

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"pipemem/internal/bufmgr"
	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// indexWalk is the paper's read arbiter, kept here as the oracle for the
// ready-word kernel: the first output at or after the pointer whose link
// is idle, whose gate is open and which has a serviceable head-of-queue
// cell. It keeps its own link bookings, gate levels and pointer, fed only
// by the operations the switch is observed to initiate, so it shares no
// derived state (idleMask, openMask, readRR) with what it checks.
type indexWalk struct {
	n, k int
	free []int64 // free[o]: first cycle output o's link is idle again
	open []bool
	rr   int
}

func newIndexWalk(n, k int) *indexWalk {
	w := &indexWalk{n: n, k: k, free: make([]int64, n), open: make([]bool, n)}
	for o := range w.open {
		w.open[o] = true
	}
	return w
}

// pick returns the output a read wave is granted on at cycle c, or -1.
func (w *indexWalk) pick(c int64, serviceable func(o int) bool) int {
	for j := 0; j < w.n; j++ {
		if o := (w.rr + j) % w.n; w.free[o] <= c && w.open[o] && serviceable(o) {
			return o
		}
	}
	return -1
}

// observe books an operation the switch initiated at cycle c: reads and
// write-throughs occupy their link for k cycles, reads move the pointer.
func (w *indexWalk) observe(op Op, c int64) {
	switch op.Kind {
	case OpRead:
		w.rr = (op.Out + 1) % w.n
		w.free[op.Out] = c + int64(w.k)
	case OpWriteThrough:
		w.free[op.Out] = c + int64(w.k)
	}
}

// headsFor fills heads from one schedule row (nil row → nil vector, so the
// dead-cycle paths engage), numbering cells from *seq and spreading them
// over vcs virtual channels.
func headsFor(row []int, heads []*cell.Cell, seq *uint64, k, wordBits, vcs int) []*cell.Cell {
	if row == nil {
		return nil
	}
	for i, dst := range row {
		heads[i] = nil
		if dst != traffic.NoArrival {
			*seq++
			heads[i] = cell.New(*seq, i, dst, k, wordBits)
			heads[i].VC = int(*seq) % vcs
		}
	}
	return heads
}

// rowAt is sched[c], or nil past the driven window.
func rowAt(sched [][]int, c int64) []int {
	if c < int64(len(sched)) {
		return sched[c]
	}
	return nil
}

// serviceable reports whether any of output o's VC queues has a head a
// read wave could take at cycle c (store-and-forward waits for the write
// wave to finish). pickVC grants some VC exactly when one is.
func (s *Switch) serviceable(o int, c int64) bool {
	for vc := 0; vc < s.cfg.VCs; vc++ {
		if node, ok := s.queues.Front(s.qidx(o, vc)); ok &&
			(s.cfg.CutThrough || c >= s.nodes[node].writeStart+int64(s.k)) {
			return true
		}
	}
	return false
}

// readGrant returns the output of the read wave initiated at cycle c (the
// tick just executed), or -1, plus the op itself.
func (s *Switch) readGrant(c int64) (int, Op) {
	op := s.ctrl[s.slotOf(c)]
	if op.Kind == OpRead {
		return op.Out, op
	}
	return -1, op
}

// TestReadyWordMatchesIndexWalk checks every cycle's read grant against
// the index walk while output gates flip at random: both forwarding modes,
// one VC and two weighted VCs, unmanaged and the five admission policies,
// and 65- and 130-port switches whose ready words span two and three words
// (the last one partial).
func TestReadyWordMatchesIndexWalk(t *testing.T) {
	type shape struct {
		ports, cells, cycles int
	}
	policies := []string{"", "share", "static:quota=8", "dt:alpha=2", "dd:target=8", "pushout"}
	for _, sh := range []shape{{4, 32, 3000}, {65, 64, 700}, {130, 128, 500}} {
		for _, ct := range []bool{true, false} {
			for _, vcs := range []int{1, 2} {
				for _, pol := range policies {
					if sh.ports > 64 && pol != "" && pol != "pushout" {
						continue // the walk does not depend on the policy; keep the wide runs few
					}
					name := fmt.Sprintf("n=%d/ct=%v/vcs=%d/%s", sh.ports, ct, vcs, pol)
					t.Run(name, func(t *testing.T) {
						checkReadyWord(t, Config{Ports: sh.ports, WordBits: 16, Cells: sh.cells, CutThrough: ct, VCs: vcs}, pol, sh.cycles)
					})
				}
			}
		}
	}
}

func checkReadyWord(t *testing.T, cfg Config, pol string, cycles int) {
	s := mustSwitch(t, cfg)
	if pol != "" {
		p, err := bufmgr.Parse(pol)
		if err != nil {
			t.Fatal(err)
		}
		s.SetBufferPolicy(p)
	}
	n, k := cfg.Ports, s.Config().Stages
	if cfg.VCs == 2 {
		for o := 0; o < n; o++ {
			if err := s.SetVCWeights(o, []int{3, 1}); err != nil {
				t.Fatal(err)
			}
		}
	}
	sched := genSchedule(t, traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.9, Seed: 11}, k, cycles)
	rng := rand.New(rand.NewPCG(5, uint64(n)))
	w := newIndexWalk(n, k)
	heads := make([]*cell.Cell, n)
	var seq uint64
	grants, held := 0, 0
	for c := int64(0); c < int64(cycles)+int64(8*k); c++ {
		if rng.IntN(4) == 0 {
			o := rng.IntN(n)
			w.open[o] = !w.open[o]
			s.SetOutputOpen(o, w.open[o])
		}
		in := headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, cfg.VCs)
		want := w.pick(c, func(o int) bool { return s.serviceable(o, c) })
		for o := 0; o < n; o++ {
			if !w.open[o] && w.free[o] <= c && s.serviceable(o, c) {
				held++ // idle link, queued cell, closed gate: the old floor's poison case
			}
		}
		s.Tick(in)
		got, op := s.readGrant(c)
		if got != want {
			t.Fatalf("cycle %d: read wave granted on output %d, the index walk grants %d (pointer %d, open %v, free %v)",
				c, got, want, w.rr, w.open, w.free)
		}
		if got >= 0 {
			grants++
		}
		w.observe(op, c)
		s.Drain()
		if c%64 == 0 {
			if err := s.AuditInvariants(); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
		}
	}
	if grants == 0 || held == 0 {
		t.Fatalf("vacuous drive: %d read grants, %d gate-held candidates", grants, held)
	}
}

// initiated reconstructs, from the link side alone, the waves that reach an
// outgoing link among those the dual switch initiated at cycle c (the tick
// just executed): a transmission whose head word is due at c+1 was booked
// at c — by a write-through if its cell's write wave also started at c, by
// a read wave otherwise. Op.Addr is the buffer node (bank·Cells + address).
func (d *DualSwitch) initiated(c int64) (ops []Op) {
	for o, r := range d.rxHead {
		if r == nil || r.start != c+1 {
			continue
		}
		kind := OpRead
		if r.d.writeStart == c {
			kind = OpWriteThrough
		}
		ops = append(ops, Op{Kind: kind, Out: o, Addr: r.d.addr})
	}
	return ops
}

// TestDualReadyWordMatchesIndexWalk is the same check for the half-quantum
// organization, whose ready word is occupancy ∧ idle (it has no gates), at
// one-, two- and three-word widths.
func TestDualReadyWordMatchesIndexWalk(t *testing.T) {
	for _, n := range []int{4, 8, 65, 130} {
		for _, ct := range []bool{true, false} {
			t.Run(fmt.Sprintf("n=%d/ct=%v", n, ct), func(t *testing.T) {
				cfg := Config{Ports: n, WordBits: 16, Cells: 16, CutThrough: ct}
				d, err := NewDual(cfg)
				if err != nil {
					t.Fatal(err)
				}
				k := d.Config().Stages
				const cycles = 3000
				sched := genSchedule(t, traffic.Config{Kind: traffic.Hotspot, N: n, Load: 0.9, HotFrac: 0.3, Seed: 13}, k, cycles)
				w := newIndexWalk(n, k)
				heads := make([]*cell.Cell, n)
				var seq uint64
				grants := 0
				for c := int64(0); c < cycles+int64(8*k); c++ {
					in := headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, 1)
					want := w.pick(c, func(o int) bool {
						node, ok := d.queues.Front(o)
						return ok && (ct || c >= d.descs[node].writeStart+int64(k))
					})
					d.Tick(in)
					got := -1
					for _, op := range d.initiated(c) {
						if op.Kind == OpRead {
							got = op.Out
						}
						w.observe(op, c)
					}
					if got != want {
						t.Fatalf("cycle %d: read wave granted on output %d, the index walk grants %d (pointer %d, free %v)",
							c, got, want, w.rr, w.free)
					}
					if got >= 0 {
						grants++
					}
					d.Drain()
				}
				if grants == 0 {
					t.Fatal("vacuous drive: no read wave was ever granted")
				}
			})
		}
	}
}

// gatedDrive replays one store-and-forward schedule with gate levels
// redrawn every few cycles, logging every initiated operation; with
// rebuild set, the switch is torn down to a snapshot and rebuilt after
// every cycle, the levels pushed again as SetOutputOpen's contract asks.
func gatedDrive(t *testing.T, rebuild bool) []Op {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 32}
	s := mustSwitch(t, cfg)
	k := s.Config().Stages
	sched := genSchedule(t, traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.8, Seed: 29}, k, 600)
	rng := rand.New(rand.NewPCG(17, 3))
	open := []bool{true, true, true, true}
	heads := make([]*cell.Cell, cfg.Ports)
	var seq uint64
	var ops []Op
	for c := int64(0); c < int64(len(sched))+int64(6*k); c++ {
		if c%5 == 0 {
			open[rng.IntN(len(open))] = rng.IntN(2) == 0
		}
		for o, lvl := range open {
			s.SetOutputOpen(o, lvl)
		}
		s.Tick(headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, 1))
		_, op := s.readGrant(c)
		ops = append(ops, op)
		s.Drain()
		if rebuild {
			st, err := s.Snapshot()
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if s, err = NewFromSnapshot(mustJSONRoundTrip(t, st)); err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			if err := s.AuditInvariants(); err != nil {
				t.Fatalf("cycle %d, rebuilt: %v", c, err)
			}
		}
	}
	return ops
}

// TestRestoreRebuildsReadyWord: idleMask is derived from LinkFree and Cycle
// on restore and the gate levels are re-pushed by their owner, so a run
// rebuilt at every cycle initiates the same waves as the uninterrupted one.
func TestRestoreRebuildsReadyWord(t *testing.T) {
	ref, got := gatedDrive(t, false), gatedDrive(t, true)
	reads := 0
	for c := range ref {
		if ref[c] != got[c] {
			t.Fatalf("cycle %d: uninterrupted run initiated %+v, rebuilt run %+v", c, ref[c], got[c])
		}
		if ref[c].Kind == OpRead {
			reads++
		}
	}
	if reads == 0 {
		t.Fatal("vacuous drive: no read wave was ever granted")
	}
}

// TestClosedOutputHoldsAndReopens: a closed output whose link is idle and
// whose queue is empty must not be cut through to (pickWrite's
// write-through test reads the same level as the ready word), must not be
// read, must not keep TickN from fast-forwarding — and reopens to the
// order its cells arrived in.
func TestClosedOutputHoldsAndReopens(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true}
	s := mustSwitch(t, cfg)
	k := s.Config().Stages
	s.SetOutputOpen(1, false)
	s.TickN(nil, 1<<40) // empty and closed: still one O(1) jump
	if s.OutputOpen(1) || s.Cycle() != 1<<40 {
		t.Fatalf("fast-forward over a closed output: open=%v cycle=%d", s.OutputOpen(1), s.Cycle())
	}

	inject := func(seq uint64, in, dst int) {
		heads := make([]*cell.Cell, cfg.Ports)
		heads[in] = cell.New(seq, in, dst, k, cfg.WordBits)
		s.TickN(heads, int64(k))
	}
	inject(1, 0, 1)
	inject(2, 2, 1)
	inject(3, 3, 3) // an open output still cuts through beside the held one
	s.TickN(nil, int64(4*k))
	var outs []int
	for _, d := range s.Drain() {
		outs = append(outs, d.Output)
	}
	if !reflect.DeepEqual(outs, []int{3}) || s.QueuedFor(1) != 2 {
		t.Fatalf("while closed: departures on outputs %v, %d cells held for output 1; want [3] and 2", outs, s.QueuedFor(1))
	}
	if err := s.AuditInvariants(); err != nil {
		t.Fatal(err)
	}

	s.SetOutputOpen(1, true)
	s.TickN(nil, int64(4*k))
	var seqs []uint64
	for _, d := range s.Drain() {
		if d.Output != 1 || !d.Cell.Equal(d.Expected) {
			t.Fatalf("after reopening: departure %+v", d)
		}
		seqs = append(seqs, d.Expected.Seq)
	}
	if !reflect.DeepEqual(seqs, []uint64{1, 2}) || !s.Quiescent() {
		t.Fatalf("after reopening: departed %v (quiescent=%v), want [1 2] and a drained switch", seqs, s.Quiescent())
	}
}

// TestSetOutputOpenRefusesAbsentOutput: a gate level for an output the
// switch lacks is a caller bug. The mask words have room past port n-1, so
// without the range check the level would land silently in a stray bit.
func TestSetOutputOpenRefusesAbsentOutput(t *testing.T) {
	s := mustSwitch(t, Config{Ports: 4, WordBits: 16, Cells: 16})
	for _, out := range []int{-1, 4, 63, 64} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetOutputOpen(%d) on a 4-port switch did not panic", out)
				}
			}()
			s.SetOutputOpen(out, false)
		}()
	}
	if err := s.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}
