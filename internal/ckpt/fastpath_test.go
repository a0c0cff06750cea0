package ckpt

import (
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/traffic"
)

// TestFastPathMemFaultReplayEquivalence covers memory upsets on a switch
// without ECC (the seam materializes lazily deferred payloads before
// flipping, so the upset lands on real bytes, and opens only the waves in
// flight it reaches). The existing replay matrix runs its fault plans
// against ECC switches, where every upset opens a dirty window — this run
// drives a cut-through, non-ECC switch, so the checkpoint is taken from
// (and the resumed run re-enters) the deferred-deposit machinery, and every
// flip surfaces as a counted corrupt delivery.
// The uninterrupted run is the oracle: checkpoint mid-plan through the
// file round trip, resume, and require a bit-identical RunResult and
// identical engine tallies.
func TestFastPathMemFaultReplayEquivalence(t *testing.T) {
	plan, err := fault.Parse(
		"@40 mem stage=any addr=any\n" +
			"@90 mem stage=any addr=any\n" +
			"@130 mem stage=2 addr=any bits=0x44\n" +
			"@300 mem stage=any addr=any\n" +
			"@420 mem stage=0 addr=any\n" +
			"@560 mem stage=any addr=any\n")
	if err != nil {
		t.Fatal(err)
	}
	spec := Spec{
		Switch:    core.Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true},
		Traffic:   traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.85, Seed: 19},
		Cycles:    700,
		Policy:    "dt:alpha=2",
		Plan:      plan,
		FaultSeed: 5,
	}

	// Without ECC an upset on a live word is delivered corrupt. The run
	// carries a plan, so that is its measurement and not an error: the
	// session swallows core.ErrCorrupt (the bare runner, further down, does
	// not). A clean run would mean the plan never hit live words, making
	// the whole test vacuous.
	runCorrupt := func(s *Session) core.RunResult {
		t.Helper()
		res, err := s.Run()
		if err != nil {
			t.Fatalf("a fault-plan run failed on %v (result %+v)", err, res)
		}
		return res
	}

	ref, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := runCorrupt(ref)
	if want.Corrupt == 0 {
		t.Fatalf("no corrupt deliveries in the oracle run: %+v", want)
	}
	if _, err := ref.Runner().Result(); !errors.Is(err, core.ErrCorrupt) || !strings.Contains(err.Error(), "corrupted cells") {
		t.Fatalf("the runner's own verdict on the same run: %v, want core.ErrCorrupt", err)
	}

	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Stop between two plan events, so the checkpoint carries an engine
	// mid-plan along with the fast-path switch state.
	for i := 0; i < 333; i++ {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	path := filepath.Join(t.TempDir(), "fastpath.ckpt")
	if err := s.CheckpointTo(path); err != nil {
		t.Fatal(err)
	}
	// Finish the interrupted run too: its tallies are the complete-run
	// reference for the resumed engine's.
	runCorrupt(s)
	wantApplied, wantSkipped := s.Engine().Tallies()

	r, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := runCorrupt(r)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run diverged:\n got  %+v\n want %+v", got, want)
	}
	if gotApplied, gotSkipped := r.Engine().Tallies(); gotApplied != wantApplied || gotSkipped != wantSkipped {
		t.Fatalf("fault tallies diverged:\n got  %v %v\n want %v %v", gotApplied, gotSkipped, wantApplied, wantSkipped)
	}
}

// TestCutBesideOpenWave: a stuck bank opens every read initiated while it
// is stuck. A periodic cut landing on the first cycle with an open slot
// writes its file there, and the file resumes to the uninterrupted result.
func TestCutBesideOpenWave(t *testing.T) {
	spec := openWaveSpec(t)
	ref, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want, err := ref.Run()
	if err != nil {
		t.Fatal(err)
	}
	if want.Corrupt == 0 || want.Delivered == want.Corrupt {
		t.Fatalf("vacuous: %d delivered, %d of them corrupt", want.Delivered, want.Corrupt)
	}

	// The first cycle with an open slot.
	probe, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	cut := int64(-1)
	for cut < 0 {
		if ok, err := probe.Step(); err != nil || !ok {
			t.Fatalf("no cycle with an open slot (ok=%v err=%v)", ok, err)
		}
		st, err := probe.sw.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		if slices.Contains(st.Open, true) {
			cut = probe.sw.Cycle()
		}
	}

	path := filepath.Join(t.TempDir(), "cut.ckpt")
	s, err := New(spec, Options{Path: path, Every: cut})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, s, cut)
	r, err := Resume(path, Options{AuditEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	if r.sw.Cycle() != cut {
		t.Fatalf("the file holds cycle %d, the cut was at %d", r.sw.Cycle(), cut)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resumed from the cut:\n got  %+v\n want %+v", got, want)
	}
	if _, err := s.Run(); err != nil {
		t.Fatalf("the checkpointing run: %v", err)
	}
}

// openWaveSpec is a 2-port ECC switch whose bank 2 sticks at cycle 60 and
// stays stuck, then meets an input-register flip at 401.
func openWaveSpec(t testing.TB) Spec {
	plan, err := fault.Parse("@60 stuck stage=2\n@401 inreg in=0 word=0\n")
	if err != nil {
		t.Fatal(err)
	}
	return Spec{
		Switch:  core.Config{Ports: 2, WordBits: 16, Cells: 8, ECC: true},
		Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 2, Load: 0.9, Seed: 3},
		Cycles:  1000,
		Plan:    plan,
	}
}
