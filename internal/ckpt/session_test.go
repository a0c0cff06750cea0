package ckpt

import (
	"errors"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

func coreConfig() core.Config {
	return core.Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true}
}

// faultSpec is a plan of memory upsets against an ECC-protected switch:
// SEC-DED corrects each flip, so delivery stays clean while the engine's
// RNG, cursor and tallies all advance. (Link events are the matrix's
// "+links" rows, linkSpec; input-register faults corrupt delivered cells
// and stay outside it.)
const faultSpec = "@40 mem stage=any addr=any\n" +
	"@90 mem stage=any addr=any\n" +
	"@130 mem stage=any addr=any\n" +
	"@210 mem stage=3 addr=any\n" +
	"@300 mem stage=any addr=any\n" +
	"@420 mem stage=0 addr=any\n"

// specFor builds the test spec for one (policy, fault) combination.
func specFor(t testing.TB, policy string, withFaults bool) Spec {
	t.Helper()
	spec := Spec{
		Switch:  coreConfig(),
		Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.85, Seed: 19},
		Cycles:  700,
		Policy:  policy,
	}
	if withFaults {
		// ECC so injected flips are survivable; no cut-through (the ECC
		// pipeline forbids it).
		spec.Switch = core.Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true}
		plan, err := fault.Parse(faultSpec)
		if err != nil {
			t.Fatal(err)
		}
		spec.Plan = plan
		spec.FaultSeed = 5
	}
	return spec
}

// runFull drives a fresh session to completion.
func runFull(t *testing.T, spec Spec) core.RunResult {
	t.Helper()
	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestReplayEquivalenceMatrix is the restore-equivalence golden: for every
// buffer-management policy — plain, with an active fault plan, and behind
// CRC links cut inside a retransmission, inside a backoff, with arrivals
// queued behind a busy link and with words already lost on the wire — a
// run checkpointed mid-flight (through the full file round trip) and
// resumed must finish with a bit-identical RunResult and, for fault runs,
// an identical fault report (engine and link tallies included).
func TestReplayEquivalenceMatrix(t *testing.T) {
	// A row's cut advances the session to where the checkpoint is taken.
	type row struct {
		name string
		spec func(t *testing.T, policy string) Spec
		cut  func(t *testing.T, s *Session)
	}
	at333 := func(t *testing.T, s *Session) { stepTo(t, s, 333) }
	rows := []row{
		{"", func(t *testing.T, pol string) Spec { return specFor(t, pol, false) }, at333},
		{"+faults", func(t *testing.T, pol string) Spec { return specFor(t, pol, true) }, at333},
	}
	for name, cut := range linkCuts {
		rows = append(rows, row{"+links/" + name, func(t *testing.T, pol string) Spec { return linkSpec(t, pol) }, func(t *testing.T, s *Session) { stepUntil(t, s, cut) }})
	}
	policies := []string{"", "share", "static:quota=8", "dt:alpha=2", "dd:target=8", "pushout"}
	for _, pol := range policies {
		for _, row := range rows {
			name := pol
			if name == "" {
				name = "unmanaged"
			}
			t.Run(name+row.name, func(t *testing.T) {
				spec := row.spec(t, pol)
				ref, err := New(spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				want, err := ref.Run()
				if err != nil {
					t.Fatal(err)
				}

				s, err := New(spec, Options{})
				if err != nil {
					t.Fatal(err)
				}
				row.cut(t, s)
				path := filepath.Join(t.TempDir(), "mid.ckpt")
				if err := s.CheckpointTo(path); err != nil {
					t.Fatal(err)
				}
				r, err := Resume(path, Options{AuditEvery: 50})
				if err != nil {
					t.Fatal(err)
				}
				got, err := r.Run()
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("restored run diverged:\n got  %+v\n want %+v", got, want)
				}
				if gotRep, wantRep := r.Report(got), ref.Report(want); !reflect.DeepEqual(gotRep, wantRep) {
					t.Fatalf("fault report diverged:\n got  %+v\n want %+v", gotRep, wantRep)
				}
			})
		}
	}
}

// TestAutoCheckpointResume runs with a periodic checkpoint cadence, then
// resumes from whatever file the cadence last wrote and expects the same
// final result.
func TestAutoCheckpointResume(t *testing.T) {
	spec := specFor(t, "pushout", false)
	want := runFull(t, spec)

	path := filepath.Join(t.TempDir(), "auto.ckpt")
	s, err := New(spec, Options{Path: path, Every: 250})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}

	r, err := Resume(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("resume from auto-checkpoint diverged:\n got  %+v\n want %+v", got, want)
	}
}

// TestTraceEquivalenceAfterRestore checks the stronger replay claim: the
// trace events emitted after the restore point are identical to the
// uninterrupted run's events over the same cycles.
func TestTraceEquivalenceAfterRestore(t *testing.T) {
	spec := specFor(t, "dt:alpha=2", false)
	const cut = 400

	observed := func(s *Session, skipTo int64) []obs.Event {
		t.Helper()
		sink := &obs.MemSink{}
		tr := obs.NewTracer(sink, 1<<16, 1)
		s.opts.Observer.Tracer = tr
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var out []obs.Event
		for _, e := range sink.Events {
			if e.Cycle > skipTo {
				out = append(out, e)
			}
		}
		return out
	}

	newObserved := func() *Session {
		s, err := New(spec, Options{Observer: core.NewObserver(obs.NewRegistry(), 4)})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}

	ref := newObserved()
	want := observed(ref, cut)

	s := newObserved()
	for s.Switch().Cycle() < cut {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("ok=%v err=%v", ok, err)
		}
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeFrom(ck, Options{Observer: core.NewObserver(obs.NewRegistry(), 4)})
	if err != nil {
		t.Fatal(err)
	}
	got := observed(r, cut)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("post-restore trace diverged: %d events vs %d", len(got), len(want))
	}
}

// TestWatchdogTripsOnStall wedges every output shut and expects the
// watchdog to abort the drain with ErrStalled, a partial result, an
// EvWatchdog trace event, and a diagnostic checkpoint that itself loads.
func TestWatchdogTripsOnStall(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	sink := &obs.MemSink{}
	observer := core.NewObserver(obs.NewRegistry(), 4)
	observer.Tracer = obs.NewTracer(sink, 0, 1)

	s, err := New(Spec{
		Switch:  coreConfig(),
		Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.5, Seed: 3},
		Cycles:  60,
	}, Options{Path: path, WatchdogWindow: 64, Observer: observer})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing may ever depart: once the driven window ends, the drain makes
	// no progress while cells stay resident.
	for out := 0; out < s.Switch().Config().Ports; out++ {
		s.Switch().SetOutputOpen(out, false)
	}

	res, err := s.Run()
	if err == nil {
		t.Fatal("stalled run finished without error")
	}
	if !errors.Is(err, ErrStalled) {
		t.Fatalf("want ErrStalled, got %v", err)
	}
	if res.Offered == 0 || res.Delivered != 0 {
		t.Fatalf("partial result implausible for a wedged switch: %+v", res)
	}
	if n := sink.Count(obs.EvWatchdog); n != 1 {
		t.Fatalf("want 1 watchdog event, got %d", n)
	}
	if s.Switch().Resident() == 0 {
		t.Fatal("scenario must leave resident cells")
	}
	// The diagnostic checkpoint is a loadable snapshot of the stuck state.
	ck, err := Load(path + ".stuck")
	if err != nil {
		t.Fatal(err)
	}
	r, err := ResumeFrom(ck, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := r.Switch().Resident(); got != s.Switch().Resident() {
		t.Fatalf("diagnostic checkpoint resident=%d, live switch=%d", got, s.Switch().Resident())
	}
}

// TestWatchdogQuietOnHealthyRun arms a tight watchdog over a healthy run
// and expects no trip.
func TestWatchdogQuietOnHealthyRun(t *testing.T) {
	spec := specFor(t, "", false)
	s, err := New(spec, Options{WatchdogWindow: 100})
	if err != nil {
		t.Fatal(err)
	}
	want := runFull(t, spec)
	got, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watchdog perturbed the run:\n got  %+v\n want %+v", got, want)
	}
}

// TestAuditCadenceCatchesCorruption resumes from a checkpoint whose
// occupancy bookkeeping was tampered with and expects the session's audit
// cadence to abort the run with a diagnostic error — the defense layer for
// corrupted (but CRC-valid) state.
func TestAuditCadenceCatchesCorruption(t *testing.T) {
	s := sessionAt(t, 200)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck.Switch.OutOcc[0]++
	r, err := ResumeFrom(ck, Options{AuditEvery: 16})
	if err != nil {
		t.Fatal(err)
	}
	_, err = r.Run()
	if err == nil {
		t.Fatal("corruption not caught by the audit cadence")
	}
	if errors.Is(err, ErrStalled) {
		t.Fatalf("want audit error, got watchdog: %v", err)
	}
	if !strings.Contains(err.Error(), "audit") {
		t.Fatalf("error does not identify the audit: %v", err)
	}
}

// TestResumeRejectsBadCheckpoints exercises ResumeFrom's validation.
func TestResumeRejectsBadCheckpoints(t *testing.T) {
	s := sessionAt(t, 50)
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	ck := *good
	ck.Switch = nil
	if _, err := ResumeFrom(&ck, Options{}); err == nil {
		t.Fatal("nil switch state accepted")
	}

	ck = *good
	ck.Policy = "no-such-policy"
	if _, err := ResumeFrom(&ck, Options{}); err == nil {
		t.Fatal("unknown policy spec accepted")
	}

	ck = *good
	ck.Plan = "@5 mem stage=any addr=any\n"
	if _, err := ResumeFrom(&ck, Options{}); err == nil {
		t.Fatal("fault plan without engine state accepted")
	}

	ck = *good
	ck.Runner.Cycles = 12345
	if _, err := ResumeFrom(&ck, Options{}); err == nil {
		t.Fatal("runner/checkpoint cycle mismatch accepted")
	}
}

// A checkpoint whose stream state no stream could have exported — a burst
// bound for an output the switch does not have — used to restore and then
// take the process down with "core: cell destination 99 out of range" a few
// cycles in. It is a file pmserve reads from disk: the restore must report it.
func TestResumeRejectsImpossibleStreamState(t *testing.T) {
	spec := specFor(t, "", false)
	spec.Traffic = traffic.Config{Kind: traffic.Bursty, N: 4, Load: 0.5, BurstLen: 4, Seed: 3}
	s, err := New(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := s.Step(); err != nil {
			t.Fatal(err)
		}
	}
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ResumeFrom(ck, Options{}); err != nil {
		t.Fatalf("untouched checkpoint refused: %v", err)
	}
	ck.Stream.BurstLeft[0], ck.Stream.BurstDst[0] = 3, 99
	_, err = ResumeFrom(ck, Options{})
	if err == nil || !strings.Contains(err.Error(), "restore traffic") || !strings.Contains(err.Error(), "burst destination 99") {
		t.Fatalf("ResumeFrom error %v, want a traffic restore error naming the burst destination", err)
	}
}
