package ckpt

import (
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/traffic"
)

// sessionAt builds a session for the canonical small test spec and steps
// it n times.
func sessionAt(t *testing.T, n int) *Session {
	t.Helper()
	s, err := New(Spec{
		Switch:  coreConfig(),
		Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.8, Seed: 11},
		Cycles:  800,
		Policy:  "dt:alpha=2",
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("step %d: ok=%v err=%v", i, ok, err)
		}
	}
	return s
}

func TestFileRoundTrip(t *testing.T) {
	s := sessionAt(t, 321)
	want, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "run.ckpt")
	if err := Save(path, want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("checkpoint did not survive the file round trip")
	}
	// No temp files left behind.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("stray files after Save: %v", entries)
	}
}

// TestLoadRejectsDamage damages a valid checkpoint file in each of the
// ways the header guards against and demands a descriptive refusal.
func TestLoadRejectsDamage(t *testing.T) {
	s := sessionAt(t, 100)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "run.ckpt")
	if err := Save(path, ck); err != nil {
		t.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	check := func(name string, data []byte, wantSub string) {
		t.Helper()
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Load(p)
		if err == nil {
			t.Fatalf("%s: Load accepted damaged file", name)
		}
		if !strings.Contains(err.Error(), wantSub) {
			t.Fatalf("%s: error %q does not mention %q", name, err, wantSub)
		}
	}

	// Flipped body byte: CRC must catch it.
	bad := append([]byte(nil), good...)
	bad[len(bad)-2] ^= 0x20
	check("crc.ckpt", bad, "CRC")

	// Truncated body: length must catch it.
	check("trunc.ckpt", good[:len(good)-10], "truncated")

	// Future format version: actionable refusal naming both versions.
	future := []byte(strings.Replace(string(good), "pmckpt v1 ", "pmckpt v99 ", 1))
	check("future.ckpt", future, "format v99")

	// Not a checkpoint at all.
	check("garbage.ckpt", []byte("hello world\n{}"), "not a pipemem checkpoint")

	// Missing file surfaces the underlying error.
	if _, err := Load(filepath.Join(dir, "nope.ckpt")); err == nil {
		t.Fatal("Load of a missing file must fail")
	}
}

// TestResumeReportsUnusableSwitchState: a well-formed file (header, length
// and CRC all valid) whose switch state queues descriptors without cells
// must come back from Load → Resume as an error. It used to restore
// cleanly and nil-dereference on the first step — which, behind pmserve,
// took the whole server down with the one session.
func TestResumeReportsUnusableSwitchState(t *testing.T) {
	ck, err := sessionAt(t, 321).Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	queued := 0
	for q := range ck.Switch.Queues {
		for i := range ck.Switch.Queues[q] {
			ck.Switch.Queues[q][i].Desc.Cell = nil
			queued++
		}
	}
	if queued == 0 {
		t.Fatal("set-up: nothing queued at the checkpoint")
	}
	path := filepath.Join(t.TempDir(), "nocells.ckpt")
	if err := Save(path, ck); err != nil {
		t.Fatal(err)
	}
	s, err := Resume(path, Options{})
	if err == nil {
		s.Step() // the old failure mode, for the report
		t.Fatal("checkpoint with cell-less descriptors resumed")
	}
	if !strings.Contains(err.Error(), "has no cell") {
		t.Fatalf("error %q does not say what is wrong with the state", err)
	}
}

// TestCheckpointBytesPinned pins the pmckpt v1 file bytes (header and
// body) of a plain and of a fault-plan session 333 cycles in. A session
// that uses nothing a later format extension serializes must keep writing
// exactly these bytes, or files written before the extension and after it
// stop being interchangeable.
func TestCheckpointBytesPinned(t *testing.T) {
	rows := []struct {
		name   string
		policy string
		faults bool
		sum    uint64
		size   int
	}{
		{"plain", "dt:alpha=2", false, 0x6c6398750050f58c, 14127},
		{"faultplan", "", true, 0x6d3dbe1aff0cd4dd, 15564},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			s, err := New(specFor(t, r.policy, r.faults), Options{})
			if err != nil {
				t.Fatal(err)
			}
			stepTo(t, s, 333)
			path := filepath.Join(t.TempDir(), "pin.ckpt")
			if err := s.CheckpointTo(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			h := fnv.New64a()
			h.Write(data)
			if h.Sum64() != r.sum || len(data) != r.size {
				t.Fatalf("%d bytes, digest %#x; pinned %d bytes, %#x", len(data), h.Sum64(), r.size, r.sum)
			}
		})
	}
}
