package ckpt

import (
	"reflect"
	"testing"

	"pipemem/internal/traffic"
)

// FuzzCheckpointCycle drives the replay-equivalence property from
// arbitrary interrupt points: whatever cycle the fuzzer picks, a run
// checkpointed there and resumed must finish bit-identically to the
// uninterrupted run. The seed corpus covers the edges (before the first
// arrival, deep in the drain); the fuzzer explores the middle. With ecc
// set the switch is ECC-protected and runs the matrix's upset plan, so a
// cut can land inside a dirty window — between an upset and the wave that
// scrubs it — where the restored switch must rebuild the dirty set and
// stay on the exact path just as long as the uninterrupted one. With sparse
// set the traffic is the bursty load-0.05 stream instead of Bernoulli 0.9:
// its gaps are hundreds of cycles long and the stream has drawn them ahead,
// so a cut lands where the generator has run past the checkpointed cycle —
// mid-gap, or on the horizon cycle with the resume port's start already
// drawn — and the checkpoint must hold the generator as of the cut.
func FuzzCheckpointCycle(f *testing.F) {
	f.Add(uint16(0), uint64(1), false, false)
	f.Add(uint16(1), uint64(7), false, false)
	f.Add(uint16(250), uint64(42), false, false)
	f.Add(uint16(399), uint64(3), false, false)
	f.Add(uint16(450), uint64(9), false, false) // inside the drain tail
	f.Add(uint16(41), uint64(19), true, false)  // the cycle after the first upset
	f.Add(uint16(93), uint64(19), true, false)
	f.Add(uint16(214), uint64(5), true, false)
	f.Add(uint16(0), uint64(11), true, false)
	f.Add(uint16(300), uint64(42), false, true) // mid-gap: drawn ahead from 197 to 360
	f.Add(uint16(360), uint64(42), false, true) // the horizon cycle, resume port 2
	f.Add(uint16(1300), uint64(42), true, true) // mid-gap, upsets in flight
	f.Add(uint16(1505), uint64(42), true, true) // the horizon cycle, resume port 1
	f.Add(uint16(117), uint64(7), false, true)  // the horizon cycle, resume port 3
	f.Add(uint16(3100), uint64(7), false, true) // inside the drain tail

	f.Fuzz(func(t *testing.T, steps uint16, seed uint64, ecc, sparse bool) {
		spec := specFor(t, "dt:alpha=2", ecc)
		spec.Traffic = traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: seed}
		spec.Cycles = 400
		if sparse {
			spec.Traffic = traffic.Config{Kind: traffic.Bursty, N: 4, Load: 0.05, BurstLen: 8, Seed: seed}
			spec.Cycles = 3000
		}
		want := runFull(t, spec)

		s, err := New(spec, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < int(steps); i++ {
			ok, err := s.Step()
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break // run ended before the interrupt point; still valid
			}
		}
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		r, err := ResumeFrom(ck, Options{})
		if err != nil {
			t.Fatal(err)
		}
		got, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("interrupt after %d steps diverged:\n got  %+v\n want %+v", steps, got, want)
		}
	})
}
