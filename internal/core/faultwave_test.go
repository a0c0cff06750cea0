package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"pipemem/internal/traffic"
)

// Faults placed under waves on purpose: every seam, fired at a chosen stage
// offset of an in-flight wave of a chosen kind, with the switch held to the
// reference every cycle from the start of the drive to the end of the drain
// — departures, drops by mode, the reference's counters — and
// AuditInvariants clean every cycle. Every cycle until the switch has
// drained is snapshotted and restored too, and every 13th cycle the run
// continues on the restored switch.

// waveKind is the kind of in-flight wave a fault is aimed at.
type waveKind int

const (
	readWave waveKind = iota
	writeWave
	writeThroughWave
	multicastWave // the write wave of a multicast cell
	numWaveKinds
)

func (w waveKind) String() string {
	return [...]string{"read", "write", "write-through", "multicast"}[w]
}

// is reports whether op, initiated in a switch whose refcnt is given, is a
// wave of kind w.
func (w waveKind) is(op *Op, refcnt []int) bool {
	switch w {
	case readWave:
		return op.Kind == OpRead
	case writeWave:
		return op.Kind == OpWrite && refcnt[op.Addr] == 1
	case writeThroughWave:
		return op.Kind == OpWriteThrough
	}
	return op.Kind == OpWrite && refcnt[op.Addr] > 1
}

// seam is one fault fired at a wave: op is the wave, at stage off of the
// coming cycle.
type seam struct {
	name string
	ecc  bool // the switch runs with ECC
	fire func(l *lockstep, op Op, off int)
}

// seams lists every fault kind, in both flavors where it has two.
func seams() []seam {
	mem := func(l *lockstep, op Op, off int) {
		l.both(func(s faultSeams) { s.InjectMemoryFault(off, op.Addr, 0x0010) })
	}
	stuck := func(l *lockstep, op Op, off int) {
		l.both(func(s faultSeams) { s.SetStageStuck(off, true) })
	}
	return []seam{
		{name: "mem/ecc", ecc: true, fire: mem},
		{name: "mem", fire: mem},
		{name: "mem/uncorrectable", ecc: true, fire: func(l *lockstep, op Op, off int) {
			l.both(func(s faultSeams) { s.InjectMemoryFault(off, op.Addr, 0x0011) })
		}},
		{name: "stuck", ecc: true, fire: stuck},
		// No check bits: the bank's all-ones words reach the outputs.
		{name: "stuck/no-ecc", fire: stuck},
		{name: "stuck-off", ecc: true, fire: func(l *lockstep, op Op, off int) {
			// The bank stuck a cell time ago; it clears under the wave.
			l.both(func(s faultSeams) { s.SetStageStuck(off, false) })
		}},
		{name: "inreg", fire: func(l *lockstep, op Op, off int) {
			l.both(func(s faultSeams) { s.InjectInputRegisterFault(op.In, off, 0x0100) })
		}},
	}
}

// faultUnderWave drives a 4×4 switch and the reference with hotspot traffic
// (every third cell multicast), and fires the faults in turn, each at the
// first wave of the given kind found at stage off once the drive is warm
// and the last fault is a few cycles old. strict demands that every fault
// finds its wave, that on an ECC switch some wave runs off the commit (an
// open ring slot) and that the drain empties both sides; the fuzzer drops
// the faults a schedule offers no wave for.
func faultUnderWave(t testing.TB, kind waveKind, off int, seed uint64, fires []seam, ecc, strict bool) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: kind != readWave || seed%2 == 0}
	cfg.ECC = ecc
	k := cfg.Canonical().Stages
	const cycles, warm = 320, 40
	sched := genSchedule(t, traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.7, HotFrac: 0.4, Seed: seed}, k, cycles)
	l := newLockstep(t, cfg, "")
	l.mcastEvery = 3
	var ev TraceEvent
	l.sw.SetTracer(func(e TraceEvent) { ev = e })
	next, sawOpen := int64(warm), false
	for c := int64(0); c < cycles+int64(8*k*cfg.Cells); c++ {
		if len(fires) > 0 && c >= next {
			if op := l.sw.ctrl[l.sw.ctrlSlot(c, off)]; op.Kind != OpNone && kind.is(&op, l.sw.refcnt) {
				fires[0].fire(l, op, off)
				fires, next = fires[1:], c+int64(k/4)
			}
		}
		l.tick(rowAt(sched, c))
		sawOpen = sawOpen || l.sw.openN > 0
		if want := l.ref.trace(); !sameEvent(ev, want) {
			t.Fatalf("cycle %d: events diverged:\n switch    %v\n reference %v", c, ev, want)
		}
		if err := l.sw.AuditInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		if c >= cycles && l.sw.Quiescent() && l.sw.waves == 0 {
			continue // drained: the snapshot would hold nothing but the clock
		}
		if re := snapshotRestores(t, c, l.sw); c%13 == 0 {
			re.SetTracer(func(e TraceEvent) { ev = e })
			l.sw = re
		}
	}
	if strict && len(fires) > 0 {
		t.Fatalf("%d faults never found a %v wave at stage %d", len(fires), kind, off)
	}
	if strict && ecc && !sawOpen {
		t.Fatal("no wave ever ran off the commit: the faults opened no ring slot")
	}
	if strict && (!l.sw.Quiescent() || l.ref.Resident() != 0) {
		t.Fatal("the drain left cells behind")
	}
}

// snapshotRestores snapshots s at the boundary after cycle c, rebuilds it,
// and requires the rebuilt switch to snapshot to the same state; it returns
// the rebuilt switch.
func snapshotRestores(t testing.TB, c int64, s *Switch) *Switch {
	st, err := s.Snapshot()
	if err != nil {
		t.Fatalf("cycle %d: %v", c, err)
	}
	re, err := NewFromSnapshot(st)
	if err != nil {
		t.Fatalf("cycle %d: restore: %v", c, err)
	}
	again, err := re.Snapshot()
	if err != nil {
		t.Fatalf("cycle %d: %v", c, err)
	}
	// (The latency buckets are compared outside reflect, as in
	// compareRunners.)
	if !slices.Equal(st.CutLatency.Buckets, again.CutLatency.Buckets) {
		t.Fatalf("cycle %d: the restored switch's cut-latency histogram differs", c)
	}
	st.CutLatency.Buckets, again.CutLatency.Buckets = nil, nil
	if !reflect.DeepEqual(st, again) {
		t.Fatalf("cycle %d: the restored switch snapshots\n %+v\nnot\n %+v", c, again, st)
	}
	return re
}

// TestFaultUnderWaveMatrix: every seam × every stage offset × every wave
// kind.
func TestFaultUnderWaveMatrix(t *testing.T) {
	for _, sm := range seams() {
		for kind := waveKind(0); kind < numWaveKinds; kind++ {
			for off := 1; off < 8; off++ {
				t.Run(fmt.Sprintf("%s/%v/stage%d", sm.name, kind, off), func(t *testing.T) {
					fires := []seam{sm}
					if sm.name == "stuck-off" {
						fires = []seam{{fire: func(l *lockstep, _ Op, off int) {
							l.both(func(s faultSeams) { s.SetStageStuck(off, true) })
						}}, sm}
					}
					faultUnderWave(t, kind, off, uint64(off), fires, sm.ecc, true)
				})
			}
		}
	}
}

// TestOverrunRowUnderRecycling: the words of an overrun cell stay in its
// input row until the new occupant latches over them, though the drop hook
// hands the cell back at once. A Runner reuses it for a later arrival; both
// buffers of every row must equal those of a switch whose cells are never
// reused, which the reference holds every cycle.
func TestOverrunRowUnderRecycling(t *testing.T) {
	cfg := Config{Ports: 4, WordBits: 16, Cells: 4}
	k := cfg.Canonical().Stages
	// Staggered heads, so an arrival reuses the lost cell within its row's
	// next cell time.
	tc := traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.95, Seed: 5}
	const cycles = 600
	sched := genSchedule(t, tc, k, cycles)
	l := newLockstep(t, cfg, "")
	s := mustSwitch(t, cfg)
	r := NewRunner(s, stream(t, tc, k), cycles)
	var overruns int64
	for c := int64(0); c < cycles; c++ {
		r.Step()
		l.tick(rowAt(sched, c))
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		want, err := l.sw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got.Rows, want.Rows) {
			t.Fatalf("cycle %d: the recycling run's input rows differ:\n got  %+v\n want %+v", c, got.Rows, want.Rows)
		}
	}
	for _, d := range s.inDrops {
		overruns += d
	}
	if overruns < 10 {
		t.Fatalf("%d overruns, want at least 10", overruns)
	}
}

// FuzzFaultUnderWave: a short schedule, then the chosen seams (one byte
// each) fired one after another at the chosen stage offset of in-flight
// waves of the chosen kind — the switch held to the reference cycle by
// cycle.
func FuzzFaultUnderWave(f *testing.F) {
	// The first, a middle and the last stage of each wave kind, under every
	// seam at once.
	all := make([]byte, len(seams()))
	for i := range all {
		all[i] = byte(i)
	}
	for kind := byte(0); kind < byte(numWaveKinds); kind++ {
		for _, off := range []byte{1, 4, 7} {
			f.Add(uint16(3+kind), kind, off, false, all)
			f.Add(uint16(11+kind), kind, off, true, all)
		}
	}
	f.Fuzz(func(t *testing.T, seed uint16, kind, off byte, ecc bool, picks []byte) {
		if len(picks) > 16 {
			picks = picks[:16]
		}
		sms := seams()
		fires := make([]seam, 0, len(picks))
		for _, p := range picks {
			fires = append(fires, sms[int(p)%len(sms)])
		}
		faultUnderWave(t, waveKind(kind)%numWaveKinds, 1+int(off)%7, uint64(seed), fires, ecc, false)
	})
}
