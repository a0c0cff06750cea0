package srv

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"pipemem/internal/ckpt"
	"pipemem/internal/traffic"
)

// testConfig is the shared session spec: small enough to finish fast,
// loaded enough to exercise drops and the drain tail.
func testConfig(policy string) SessionConfig {
	return SessionConfig{
		Ports: 4, Buf: 32, Cycles: 2000,
		Load: 0.85, Seed: 7,
		Policy: policy,
	}
}

// batchResult runs a config's spec uninterrupted through the batch path —
// the reference every served run must match bit for bit.
func batchResult(t *testing.T, cfg SessionConfig) []byte {
	t.Helper()
	spec, err := cfg.Spec()
	if err != nil {
		t.Fatal(err)
	}
	sim, err := ckpt.New(spec, ckpt.Options{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := sim.Run()
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestServedBitIdentity: the determinism contract. For two buffer
// policies, a session advanced through the server — irregular step
// batches, interleaved checkpoints and scrapes — must produce the same
// RunResult as batch pmsim, and a served checkpoint must be
// byte-identical to a batch checkpoint at the same cycle.
func TestServedBitIdentity(t *testing.T) {
	for _, policy := range []string{"", "dt:alpha=2"} {
		name := policy
		if name == "" {
			name = "unmanaged"
		}
		t.Run(name, func(t *testing.T) {
			cfg := testConfig(policy)
			want := batchResult(t, cfg)

			dir := t.TempDir()
			m := NewManager(Options{CkptDir: dir, TelemetryEvery: 64})
			s, err := m.Create(cfg)
			if err != nil {
				t.Fatal(err)
			}
			// The batch reference mirrors the served run exactly — same
			// batch sizes, a checkpoint at the same cycles — because
			// core.Switch.Snapshot normalizes lazily-maintained state
			// (materializeInReg) when it runs, so checkpoint cadence is
			// part of the byte-identity contract even though it never
			// affects behavior.
			spec, err := cfg.Spec()
			if err != nil {
				t.Fatal(err)
			}
			ref, err := ckpt.New(spec, ckpt.Options{})
			if err != nil {
				t.Fatal(err)
			}
			refPath := filepath.Join(dir, "ref.ckpt")

			// Irregular batches with scrapes and checkpoints between them.
			var cycle int64
			for _, n := range []int64{1, 7, 123, 369} {
				adv, err := s.Step(n)
				if err != nil {
					t.Fatal(err)
				}
				cycle += adv
				_ = s.Status()
				_ = s.Series()
				if _, err := m.Checkpoint(s.ID()); err != nil {
					t.Fatal(err)
				}
				if adv, done, err := ref.StepN(n); adv != n || done || err != nil {
					t.Fatalf("reference StepN(%d): adv=%d done=%v err=%v", n, adv, done, err)
				}
				if err := ref.CheckpointTo(refPath); err != nil {
					t.Fatal(err)
				}
			}
			if cycle != 500 {
				t.Fatalf("advanced %d cycles, want 500", cycle)
			}
			served, err := os.ReadFile(filepath.Join(dir, s.ID()+".ckpt"))
			if err != nil {
				t.Fatal(err)
			}
			batch, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(served, batch) {
				t.Fatalf("served checkpoint diverges from batch at cycle 500: %d vs %d bytes", len(served), len(batch))
			}

			// Finish through the step surface and compare results.
			for s.State() == StateIdle {
				if _, err := s.Step(1 << 12); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.State(); st != StateDone {
				t.Fatalf("session ended %v, want done", st)
			}
			res, partial, err := s.Result()
			if err != nil || partial {
				t.Fatalf("result: partial=%v err=%v", partial, err)
			}
			got, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("served result diverges from batch:\n got %s\nwant %s", got, want)
			}
		})
	}
}

// TestFreeRunBitIdentity: background free-run is the same StepN primitive
// on a goroutine — the result must still match batch, through a pause and
// resume in the middle.
func TestFreeRunBitIdentity(t *testing.T) {
	cfg := testConfig("dt:alpha=2")
	want := batchResult(t, cfg)

	m := NewManager(Options{FreeRunBatch: 256, TelemetryEvery: 64})
	s, err := m.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil { // idempotent on a running session
		t.Fatal(err)
	}
	s.Pause()
	if st := s.State(); st == StateRunning {
		t.Fatal("still running after Pause")
	}
	if st := s.State(); st == StateIdle {
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.State() == StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("free-run did not finish")
		}
		time.Sleep(time.Millisecond)
	}
	if st := s.State(); st != StateDone {
		t.Fatalf("session ended %v, want done", st)
	}
	res, _, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("free-run result diverges from batch:\n got %s\nwant %s", got, want)
	}
}

// TestForkDiverges: a fork shares history to the fork point and then runs
// independently — finishing both must give the identical result (same
// spec, same RNG state), and deleting the source must not disturb the
// fork.
func TestForkDiverges(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(700); err != nil {
		t.Fatal(err)
	}
	f, err := m.Fork(s.ID(), "fork-a")
	if err != nil {
		t.Fatal(err)
	}
	if f.ID() != "fork-a" {
		t.Fatalf("fork id %q", f.ID())
	}
	if err := m.Delete(s.ID()); err != nil {
		t.Fatal(err)
	}
	finish := func(sess *Session) []byte {
		t.Helper()
		for sess.State() == StateIdle {
			if _, err := sess.Step(1 << 12); err != nil {
				t.Fatal(err)
			}
		}
		res, _, err := sess.Result()
		if err != nil {
			t.Fatal(err)
		}
		b, _ := json.Marshal(res)
		return b
	}
	got := finish(f)
	want := batchResult(t, testConfig(""))
	if !bytes.Equal(got, want) {
		t.Fatalf("forked run diverges from batch:\n got %s\nwant %s", got, want)
	}
}

// TestDrainRestoreRoundTrip: Drain freezes the fleet; a new manager
// restores each checkpoint and finishes bit-identical to batch.
func TestDrainRestoreRoundTrip(t *testing.T) {
	cfg := testConfig("dt:alpha=2")
	want := batchResult(t, cfg)

	dir := t.TempDir()
	m := NewManager(Options{CkptDir: dir, FreeRunBatch: 128})
	s, err := m.Create(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(137); err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	files, err := m.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 || files[0] != s.ID()+".ckpt" {
		t.Fatalf("drain wrote %v, want [%s.ckpt]", files, s.ID())
	}
	// The drained manager refuses new sessions.
	if _, err := m.Create(cfg); !errors.Is(err, ErrClosed) {
		t.Fatalf("create after drain: %v, want ErrClosed", err)
	}

	m2 := NewManager(Options{CkptDir: dir})
	r, err := m2.Create(SessionConfig{Name: "revived", Restore: files[0]})
	if err != nil {
		t.Fatal(err)
	}
	for r.State() == StateIdle {
		if _, err := r.Step(1 << 12); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := r.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(res)
	if !bytes.Equal(got, want) {
		t.Fatalf("restored run diverges from batch:\n got %s\nwant %s", got, want)
	}
}

// TestManagerLimitsAndValidation: session bound, name rules, checkpoint
// path hygiene, step caps.
func TestManagerLimitsAndValidation(t *testing.T) {
	m := NewManager(Options{MaxSessions: 2, StepMax: 100})
	a, err := m.Create(testConfig(""))
	if err != nil {
		t.Fatal(err)
	}
	if a.ID() != "s1" {
		t.Fatalf("generated id %q, want s1", a.ID())
	}
	if _, err := m.Create(SessionConfig{Name: "named", Cycles: 100, Ports: 2, Buf: 8}); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Create(testConfig("")); !errors.Is(err, ErrTooManySessions) {
		t.Fatalf("over the bound: %v, want ErrTooManySessions", err)
	}
	if err := m.Delete("named"); err != nil {
		t.Fatal(err)
	}
	if err := m.Delete("named"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete: %v, want ErrNotFound", err)
	}

	for _, bad := range []string{"server", "has space", "../etc", ".hidden", ""} {
		// "" is valid input (server-assigned id) so skip it here.
		if bad == "" {
			continue
		}
		if _, err := m.Create(SessionConfig{Name: bad, Cycles: 100, Ports: 2, Buf: 8}); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("name %q: %v, want ErrBadSpec", bad, err)
		}
	}

	if _, err := a.Step(0); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Step(0): %v, want ErrBadSpec", err)
	}
	if _, err := a.Step(101); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("Step over cap: %v, want ErrBadSpec", err)
	}

	// No -ckpt-dir: checkpointing refuses; restore names must be plain.
	if _, err := m.Checkpoint(a.ID()); !errors.Is(err, ErrNoCheckpointDir) {
		t.Fatalf("checkpoint without dir: %v, want ErrNoCheckpointDir", err)
	}
	if _, err := m.Create(SessionConfig{Restore: "x.ckpt"}); !errors.Is(err, ErrNoCheckpointDir) {
		t.Fatalf("restore without dir: %v, want ErrNoCheckpointDir", err)
	}
	md := NewManager(Options{CkptDir: t.TempDir()})
	if _, err := md.Create(SessionConfig{Restore: "../../etc/passwd"}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("traversal restore: %v, want ErrBadSpec", err)
	}

	// Bad specs map to ErrBadSpec: missing cycles, unknown traffic kind,
	// bad policy, restore+spec mix.
	for _, cfg := range []SessionConfig{
		{},
		{Cycles: 100, Traffic: "fractal"},
		{Cycles: 100, Policy: "nonsense"},
		{Cycles: 100, Restore: "x.ckpt"},
	} {
		if _, err := md.Create(cfg); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("config %+v: %v, want ErrBadSpec", cfg, err)
		}
	}
}

// TestStalledSessionFails wedges a served session's outputs shut: the
// watchdog aborts with ckpt.ErrStalled, which surfaces once from Step,
// lands the session in the failed state with the partial result frozen,
// and maps to 409 — while further stepping refuses with ErrFinished.
func TestStalledSessionFails(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create(SessionConfig{Ports: 4, Buf: 32, Cycles: 60, Load: 0.5, Seed: 3, Watchdog: 64})
	if err != nil {
		t.Fatal(err)
	}
	// Nothing may ever depart: once the driven window ends, the drain
	// makes no progress while cells stay resident.
	for out := 0; out < 4; out++ {
		s.sim.Switch().SetOutputOpen(out, false)
	}

	var stepErr error
	for s.State() == StateIdle {
		if _, stepErr = s.Step(1 << 10); stepErr != nil {
			break
		}
	}
	if !errors.Is(stepErr, ckpt.ErrStalled) {
		t.Fatalf("step error %v, want ErrStalled", stepErr)
	}
	if st := s.State(); st != StateFailed {
		t.Fatalf("state %v, want failed", st)
	}
	if got := HTTPStatus(stepErr); got != 409 {
		t.Fatalf("ErrStalled maps to %d, want 409", got)
	}
	res, partial, err := s.Result()
	if !errors.Is(err, ckpt.ErrStalled) || partial {
		t.Fatalf("result: partial=%v err=%v, want frozen ErrStalled", partial, err)
	}
	if res.Offered == 0 || res.Delivered != 0 {
		t.Fatalf("partial result implausible for a wedged switch: %+v", res)
	}
	if st := s.Status(); st.Error == "" || st.State != "failed" {
		t.Fatalf("status does not surface the failure: %+v", st)
	}
	if _, err := s.Step(1); !errors.Is(err, ErrFinished) {
		t.Fatalf("step after failure: %v, want ErrFinished", err)
	}
	if err := s.Start(); !errors.Is(err, ErrFinished) {
		t.Fatalf("run after failure: %v, want ErrFinished", err)
	}
	if err := s.Extend([][]int{{0, 1, 2, 3}}); !errors.Is(err, ErrFinished) {
		t.Fatalf("inject after failure: %v, want ErrFinished", err)
	}
	if _, err := m.Fork(s.ID(), ""); !errors.Is(err, ErrFinished) {
		t.Fatalf("fork after failure: %v, want ErrFinished", err)
	}
}

// TestInjectIntoServedTrace: cells streamed into a live trace session are
// delivered, including rows injected after the initial schedule ran dry.
func TestInjectIntoServedTrace(t *testing.T) {
	m := NewManager(Options{})
	s, err := m.Create(SessionConfig{
		Ports: 2, Buf: 8, Cycles: 400, Traffic: "trace",
		Schedule: [][]int{{1, 0}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Step(100); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend([][]int{{0, traffic.NoArrival}, {1, 0}}); err != nil {
		t.Fatal(err)
	}
	if err := s.Extend(nil); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("empty inject: %v, want ErrBadSpec", err)
	}
	if err := s.Extend([][]int{{9, 9}}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad inject: %v, want ErrBadSpec", err)
	}
	for s.State() == StateIdle {
		if _, err := s.Step(1 << 10); err != nil {
			t.Fatal(err)
		}
	}
	res, _, err := s.Result()
	if err != nil {
		t.Fatal(err)
	}
	if res.Offered != 5 || res.Delivered != 5 {
		t.Fatalf("offered %d delivered %d, want 5 and 5 (2 initial + 3 injected)", res.Offered, res.Delivered)
	}
}

// TestHammer races the whole session lifecycle: concurrent create, step,
// free-run, pause, checkpoint, fork, scrape, inject and delete against one
// manager. Run under -race (make race / the CI race job); correctness here
// is "no race, no deadlock, no panic" plus conserved session accounting.
func TestHammer(t *testing.T) {
	if testing.Short() {
		t.Skip("hammer is for the race run")
	}
	dir := t.TempDir()
	m := NewManager(Options{MaxSessions: 32, CkptDir: dir, FreeRunBatch: 64, TelemetryEvery: 32})

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				name := fmt.Sprintf("h%d-%d", w, i)
				s, err := m.Create(SessionConfig{
					Name: name, Ports: 2, Buf: 8, Cycles: 5000, Seed: uint64(w*100 + i),
				})
				if errors.Is(err, ErrTooManySessions) {
					continue
				}
				if err != nil {
					t.Error(err)
					return
				}
				switch i % 4 {
				case 0:
					_, _ = s.Step(512)
					_, _ = m.Checkpoint(name)
				case 1:
					_ = s.Start()
					_ = s.Status()
					_, _ = m.Fork(name, "")
					s.Pause()
				case 2:
					_ = s.Start()
					_, _ = m.Checkpoint(name)
					_ = s.Series()
					s.Pause()
				case 3:
					_, _ = s.Step(256)
					_, _, _ = s.Result()
				}
				// Delete everything this worker made; forks (server-named
				// s1, s2, …) are swept after the join.
				if err := m.Delete(name); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for _, s := range m.List() {
		if err := m.Delete(s.ID()); err != nil {
			t.Error(err)
		}
	}
	if n := len(m.List()); n != 0 {
		t.Fatalf("%d sessions leaked", n)
	}
	if got := m.Registry().Snapshot().Gauges["pipemem_srv_sessions_active"]; got != 0 {
		t.Fatalf("active gauge %d after full teardown", got)
	}
}
