package core

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// The egress record of a committed read or write-through holds its cell's
// words without copying them, and materializes them only where something
// reads them: a fault seam reopening the wave mid-transmission, Snapshot,
// and Drain. These pins hold every departure (words included) and, in the
// snapshot pass, every cycle's snapshot bytes to the digests the eager
// record produced.

// egressFire is a fault aimed at a committed wave found at stage off of the
// coming cycle.
type egressFire struct {
	name string
	ecc  bool
	kind OpKind
	fire func(s *Switch, op Op, off int)
}

func egressFires() []egressFire {
	return []egressFire{
		{name: "stuck/read", ecc: true, kind: OpRead, fire: func(s *Switch, _ Op, off int) { s.SetStageStuck(off, true) }},
		{name: "stuck/read/no-ecc", kind: OpRead, fire: func(s *Switch, _ Op, off int) { s.SetStageStuck(off, true) }},
		{name: "mem/read", ecc: true, kind: OpRead, fire: func(s *Switch, op Op, off int) { s.InjectMemoryFault(off, op.Addr, 0x0010) }},
		{name: "mem/read/no-ecc", kind: OpRead, fire: func(s *Switch, op Op, off int) { s.InjectMemoryFault(off, op.Addr, 0x0010) }},
		{name: "inreg/write-through", kind: OpWriteThrough, fire: func(s *Switch, op Op, off int) { s.InjectInputRegisterFault(op.In, off, 0x0100) }},
	}
}

// egressDigest drives a 4×4 hotspot run, fires f at every committed wave of
// its kind at stage off (a stuck bank clears again a cell time later), and
// folds every departure — and, with snap, the JSON of a snapshot taken at
// every cycle boundary — into one FNV-1a digest. It returns the departure,
// fault and corrupt-departure counts too, and how many faults found the
// wave's egress record still lazy, so a digest cannot match vacuously.
func egressDigest(t *testing.T, f egressFire, off int, snap bool) (sum uint64, deps, fired, corrupt, lazy int) {
	t.Helper()
	cfg := Config{Ports: 4, WordBits: 16, Cells: 16, CutThrough: true, ECC: f.ecc}
	k := cfg.Canonical().Stages
	const cycles, warm = 1200, 40
	sched := genSchedule(t, traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.8, HotFrac: 0.4, Seed: uint64(7 + off)}, k, cycles)
	s := mustSwitch(t, cfg)
	heads := make([]*cell.Cell, cfg.Ports)
	var seq uint64
	h := fnv.New64a()
	clearAt, next := int64(-1), int64(warm)
	for c := int64(0); c < int64(cycles+8*k*cfg.Cells); c++ {
		if c == clearAt {
			s.SetStageStuck(off, false)
		}
		if c >= next && c < cycles {
			slot := s.ctrlSlot(c, off)
			if op := s.ctrl[slot]; op.Kind == f.kind && !s.open[slot] {
				if s.rxHead[op.Out].src != nil {
					lazy++
				}
				f.fire(s, op, off)
				fired++
				next, clearAt = c+int64(3*k), c+int64(k)
			}
		}
		s.Tick(headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, 1))
		if err := s.AuditInvariants(); err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
		for _, d := range s.Drain() {
			intact := d.Cell.Equal(d.Expected)
			if !intact {
				corrupt++
			}
			fmt.Fprintf(h, "seq=%d out=%d in=%d headout=%d tailout=%d delay=%d words=%v intact=%v\n",
				d.Expected.Seq, d.Output, d.HeadIn, d.HeadOut, d.TailOut, d.InitDelay, d.Cell.Words, intact)
			deps++
		}
		if snap {
			st, err := s.Snapshot()
			if err != nil {
				t.Fatalf("cycle %d: %v", c, err)
			}
			b, err := json.Marshal(st)
			if err != nil {
				t.Fatal(err)
			}
			h.Write(b)
		}
	}
	if !s.Quiescent() {
		t.Fatal("the drain tail left cells behind")
	}
	return h.Sum64(), deps, fired, corrupt, lazy
}

// TestEgressRecordSeamsPinned: committed reads reopened by a stuck bank or
// a memory upset mid-transmission, committed write-throughs reopened by an
// input-register upset, each with and without a snapshot at every cycle,
// give the departures and snapshot bytes the eager egress record gave.
func TestEgressRecordSeamsPinned(t *testing.T) {
	golden := map[string]uint64{
		"stuck/read/stage1/snap=false":          0xc08dee5de593dcae, // 297 departures, 49 faults, 59 corrupt
		"stuck/read/stage1/snap=true":           0xdbc3f9e28376848c, // 297 departures, 49 faults, 59 corrupt
		"stuck/read/stage4/snap=false":          0x81aaddeea6ec9ed7, // 298 departures, 49 faults, 65 corrupt
		"stuck/read/stage4/snap=true":           0x4b110e3eff525fe6, // 298 departures, 49 faults, 65 corrupt
		"stuck/read/stage7/snap=false":          0x84072141824bfcc1, // 317 departures, 49 faults, 67 corrupt
		"stuck/read/stage7/snap=true":           0x99a0f40e97ffbfcc, // 317 departures, 49 faults, 67 corrupt
		"stuck/read/no-ecc/stage1/snap=false":   0xb9c9ccbdd673ad5b, // 297 departures, 49 faults, 59 corrupt
		"stuck/read/no-ecc/stage1/snap=true":    0xb75c9ed3f7a96bbc, // 297 departures, 49 faults, 59 corrupt
		"stuck/read/no-ecc/stage4/snap=false":   0xa4d10be82f20ba03, // 298 departures, 49 faults, 65 corrupt
		"stuck/read/no-ecc/stage4/snap=true":    0x8632cf5b53701d3d, // 298 departures, 49 faults, 65 corrupt
		"stuck/read/no-ecc/stage7/snap=false":   0x5b7078c9d25f09c6, // 317 departures, 49 faults, 67 corrupt
		"stuck/read/no-ecc/stage7/snap=true":    0x38ac760f5ebc27e7, // 317 departures, 49 faults, 67 corrupt
		"mem/read/stage1/snap=false":            0x7dc4db85f3d56385, // 297 departures, 49 faults, 0 corrupt
		"mem/read/stage1/snap=true":             0x6249e362979d1083, // 297 departures, 49 faults, 0 corrupt
		"mem/read/stage4/snap=false":            0x51e630f47bbd8c8f, // 298 departures, 49 faults, 0 corrupt
		"mem/read/stage4/snap=true":             0x93889ab80607e61c, // 298 departures, 49 faults, 0 corrupt
		"mem/read/stage7/snap=false":            0xce217bad4e3ad586, // 317 departures, 49 faults, 0 corrupt
		"mem/read/stage7/snap=true":             0xfcd72bfe834e3abc, // 317 departures, 49 faults, 0 corrupt
		"mem/read/no-ecc/stage1/snap=false":     0x6d635d1a5f29568a, // 297 departures, 49 faults, 49 corrupt
		"mem/read/no-ecc/stage1/snap=true":      0xc48db613d07d811b, // 297 departures, 49 faults, 49 corrupt
		"mem/read/no-ecc/stage4/snap=false":     0x49dcd3fe7db69b0a, // 298 departures, 49 faults, 49 corrupt
		"mem/read/no-ecc/stage4/snap=true":      0x9bffb957b3d53998, // 298 departures, 49 faults, 49 corrupt
		"mem/read/no-ecc/stage7/snap=false":     0xa096964372e8ff9f, // 317 departures, 49 faults, 49 corrupt
		"mem/read/no-ecc/stage7/snap=true":      0x2c69937434d25acf, // 317 departures, 49 faults, 49 corrupt
		"inreg/write-through/stage1/snap=false": 0xbf41db58ccb7260,  // 297 departures, 34 faults, 34 corrupt
		"inreg/write-through/stage1/snap=true":  0xf4a0551cd1e4573,  // 297 departures, 34 faults, 34 corrupt
		"inreg/write-through/stage4/snap=false": 0xfa18434005641c7a, // 298 departures, 31 faults, 31 corrupt
		"inreg/write-through/stage4/snap=true":  0x257e8970288dc8c5, // 298 departures, 31 faults, 31 corrupt
		"inreg/write-through/stage7/snap=false": 0x3e8c17d95e51e790, // 317 departures, 33 faults, 33 corrupt
		"inreg/write-through/stage7/snap=true":  0x313084be54afc5ba, // 317 departures, 33 faults, 33 corrupt
	}
	for _, f := range egressFires() {
		for _, off := range []int{1, 4, 7} {
			for _, snap := range []bool{false, true} {
				name := fmt.Sprintf("%s/stage%d/snap=%v", f.name, off, snap)
				t.Run(name, func(t *testing.T) {
					sum, deps, fired, corrupt, lazy := egressDigest(t, f, off, snap)
					if fired < 10 || deps < 250 {
						t.Fatalf("%d faults fired, %d departures: the case checks little", fired, deps)
					}
					// A snapshot after every Tick materializes every record;
					// without one, most committed waves hold theirs lazily (a read
					// of an address an earlier upset materialized copies the bank).
					if snap && lazy != 0 || !snap && 2*lazy < fired {
						t.Fatalf("%d of %d faults found a lazy egress record", lazy, fired)
					}
					t.Logf("%q: %#x, // %d departures, %d faults, %d corrupt", name, sum, deps, fired, corrupt)
					if want, ok := golden[name]; !ok || sum != want {
						t.Errorf("digest %#x, want %#x", sum, want)
					}
				})
			}
		}
	}
}
