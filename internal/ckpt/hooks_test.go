package ckpt

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

// stepTo advances a session exactly n cycles through StepN, failing the
// test if the run ends early.
func stepTo(t testing.TB, s *Session, n int64) {
	t.Helper()
	adv, done, err := s.StepN(n)
	if err != nil {
		t.Fatal(err)
	}
	if adv != n || done {
		t.Fatalf("StepN(%d): advanced %d, done=%v", n, adv, done)
	}
}

// TestStepNSplitBitIdentity: the serving layer's invariant — a run
// advanced in any mix of StepN batch sizes finishes bit-identical to the
// uninterrupted run, and checkpoints written at the same cycle from
// differently-batched runs are byte-identical files.
func TestStepNSplitBitIdentity(t *testing.T) {
	spec := specFor(t, "dt:alpha=2", false)
	want := runFull(t, spec)

	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Irregular batches summing to 333, with a mid-run checkpoint.
	for _, n := range []int64{1, 7, 100, 225} {
		stepTo(t, s, n)
	}
	dir := t.TempDir()
	split := filepath.Join(dir, "split.ckpt")
	if err := s.CheckpointTo(split); err != nil {
		t.Fatal(err)
	}

	// Reference: one StepN call to the same cycle.
	r, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, r, 333)
	whole := filepath.Join(dir, "whole.ckpt")
	if err := r.CheckpointTo(whole); err != nil {
		t.Fatal(err)
	}

	sb, err := os.ReadFile(split)
	if err != nil {
		t.Fatal(err)
	}
	wb, err := os.ReadFile(whole)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sb, wb) {
		t.Fatalf("checkpoints at cycle 333 differ by batching: %d vs %d bytes", len(sb), len(wb))
	}

	// Drive both to completion through the step surface and compare the
	// final result against the uninterrupted Run.
	for _, sess := range []*Session{s, r} {
		for {
			_, done, err := sess.StepN(50)
			if err != nil {
				t.Fatal(err)
			}
			if done {
				break
			}
		}
		got, err := sess.Finish()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped result diverged:\n got %+v\nwant %+v", got, want)
		}
	}
}

// TestExtendScheduleCheckpointRoundTrip: rows appended mid-run must
// survive the checkpoint file round trip — the restored stream plays the
// extended schedule and both runs finish identically.
func TestExtendScheduleCheckpointRoundTrip(t *testing.T) {
	sched := [][]int{
		{1, 2, 3, 0},
		{traffic.NoArrival, 0, traffic.NoArrival, 2},
	}
	spec := Spec{
		Switch:  coreConfig(),
		Traffic: traffic.Config{Kind: traffic.Trace, N: 4, Schedule: sched},
		Cycles:  200,
	}
	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, s, 40)
	if err := s.ExtendSchedule([][]int{{3, 3, traffic.NoArrival, 1}, {0, 1, 2, 3}}); err != nil {
		t.Fatal(err)
	}
	if got := len(s.Spec().Traffic.Schedule); got != 4 {
		t.Fatalf("spec schedule not synced: %d rows, want 4", got)
	}
	path := filepath.Join(t.TempDir(), "ext.ckpt")
	if err := s.CheckpointTo(path); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r.Spec().Traffic.Schedule); got != 4 {
		t.Fatalf("restored schedule has %d rows, want 4", got)
	}
	want, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored extended run diverged:\n got %+v\nwant %+v", got, want)
	}
	if want.Offered != 13 {
		t.Fatalf("offered %d cells, want 13 (the 4 schedule rows minus idle slots)", want.Offered)
	}

	// Non-trace sessions refuse.
	b, err := New(specFor(t, "", false), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.ExtendSchedule([][]int{{0, 1, 2, 3}}); err == nil {
		t.Fatal("ExtendSchedule on a Bernoulli session accepted")
	}
}

// TestSeamsInsideACoast: a trace session that has played its schedule out
// coasts (core.Runner skips the Tick of a cycle in which neither the stream
// nor the switch has an event). The two session-level calls that can land
// between two such Steps — rows streamed in, and a checkpoint cut with a
// resume — must leave it, cycle for cycle, where they leave a session
// pinned to per-cycle stepping by a PreTick that does nothing.
func TestSeamsInsideACoast(t *testing.T) {
	pin := func(s *Session) *Session {
		s.Runner().PreTick = func(int64) {}
		return s
	}
	seams := []struct {
		name    string
		offered int64
		apply   func(t *testing.T, s *Session) *Session
	}{
		{"ExtendSchedule", 13, func(t *testing.T, s *Session) *Session {
			if err := s.ExtendSchedule([][]int{{3, 3, traffic.NoArrival, 1}, {0, 1, 2, 3}}); err != nil {
				t.Fatal(err)
			}
			return s
		}},
		{"Checkpoint/ResumeFrom", 6, func(t *testing.T, s *Session) *Session {
			ck, err := s.Checkpoint()
			if err != nil {
				t.Fatal(err)
			}
			r, err := ResumeFrom(ck, Options{})
			if err != nil {
				t.Fatal(err)
			}
			return r
		}},
	}
	for _, seam := range seams {
		t.Run(seam.name, func(t *testing.T) {
			spec := Spec{
				Switch: coreConfig(),
				Traffic: traffic.Config{Kind: traffic.Trace, N: 4, Schedule: [][]int{
					{1, 2, 3, 0},
					{traffic.NoArrival, 0, traffic.NoArrival, 2},
				}},
				Cycles: 200,
			}
			got, err := New(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			ref, err := New(spec, Options{})
			if err != nil {
				t.Fatal(err)
			}
			pin(ref)
			for c := 0; ; c++ {
				if c == 77 {
					got, ref = seam.apply(t, got), pin(seam.apply(t, ref))
				}
				ok, err := got.Step()
				if err != nil {
					t.Fatal(err)
				}
				rok, err := ref.Step()
				if err != nil {
					t.Fatal(err)
				}
				if ok != rok {
					t.Fatalf("cycle %d: Step %v, per-cycle session %v", c, ok, rok)
				}
				g, err := got.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				w, err := ref.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g, w) {
					t.Fatalf("cycle %d: checkpoints differ\n got  %+v\n want %+v", c, g, w)
				}
				if !ok {
					break
				}
			}
			res, err := got.Finish()
			if err != nil {
				t.Fatal(err)
			}
			if res.Offered != seam.offered || res.Delivered != seam.offered {
				t.Fatalf("offered %d, delivered %d, want %d", res.Offered, res.Delivered, seam.offered)
			}
		})
	}
}

// TestStepNCadencesLandWhereStepDoes: StepN runs the runner in a tight
// loop between the cycles a cadence is due, so auto-checkpoints and
// watchdog evaluations land on the cycles the one-cycle Step applies them
// at, whatever the batching (an audit cadence rides along). The checkpoint
// events carry their cycle, and a watchdog whose window the wedged drain
// outlasts trips at one cycle only.
func TestStepNCadencesLandWhereStepDoes(t *testing.T) {
	spec := specFor(t, "dt:alpha=2", false)
	session := func(dir string) (*Session, *obs.MemSink) {
		sink := &obs.MemSink{}
		o := core.NewObserver(obs.NewRegistry(), spec.Switch.Ports)
		o.Tracer = obs.NewTracer(sink, 0, 1)
		s, err := New(spec, Options{Path: filepath.Join(dir, "run.ckpt"), Every: 37, AuditEvery: 11, WatchdogWindow: 53, Observer: o})
		if err != nil {
			t.Fatal(err)
		}
		for out := 0; out < spec.Switch.Ports; out++ {
			s.Switch().SetOutputOpen(out, out != 2) // output 2's cells wedge the drain
		}
		return s, sink
	}
	ref, refSink := session(t.TempDir())
	var refErr error
	for {
		ok, err := ref.Step()
		if refErr = err; err != nil || !ok {
			break
		}
	}
	got, gotSink := session(t.TempDir())
	var gotErr error
	for _, n := range []int64{1, 36, 2, 500, 10, 1 << 20} {
		var done bool
		if _, done, gotErr = got.StepN(n); done {
			break
		}
	}
	if !errors.Is(refErr, ErrStalled) || !errors.Is(gotErr, ErrStalled) {
		t.Fatalf("errors %v (Step) and %v (StepN), want both stalled", refErr, gotErr)
	}
	if g, w := got.Switch().Cycle(), ref.Switch().Cycle(); g != w {
		t.Fatalf("StepN stalled at cycle %d, Step at %d", g, w)
	}
	marks := func(sink *obs.MemSink) (cycles []int64) {
		for _, e := range sink.Events {
			if e.Kind == obs.EvCheckpoint || e.Kind == obs.EvWatchdog {
				cycles = append(cycles, e.Cycle)
			}
		}
		return cycles
	}
	if g, w := marks(gotSink), marks(refSink); len(w) < 3 || !slices.Equal(g, w) {
		t.Fatalf("checkpoint and watchdog events at\n got  %v\n want %v", g, w)
	}
}
