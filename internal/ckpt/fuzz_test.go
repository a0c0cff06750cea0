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
// stay on the exact path just as long as the uninterrupted one.
func FuzzCheckpointCycle(f *testing.F) {
	f.Add(uint16(0), uint64(1), false)
	f.Add(uint16(1), uint64(7), false)
	f.Add(uint16(250), uint64(42), false)
	f.Add(uint16(399), uint64(3), false)
	f.Add(uint16(450), uint64(9), false) // inside the drain tail
	f.Add(uint16(41), uint64(19), true)  // the cycle after the first upset
	f.Add(uint16(93), uint64(19), true)
	f.Add(uint16(214), uint64(5), true)
	f.Add(uint16(0), uint64(11), true)

	f.Fuzz(func(t *testing.T, steps uint16, seed uint64, ecc bool) {
		spec := specFor(t, "dt:alpha=2", ecc)
		spec.Traffic = traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.9, Seed: seed}
		spec.Cycles = 400
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
