package ckpt

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"pipemem/internal/fault"
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
	future := []byte(strings.Replace(string(good), fmt.Sprintf("pmckpt v%d ", FormatVersion), "pmckpt v99 ", 1))
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

// TestResumeRefusesRetiredFaultKind: a checkpoint whose fault plan holds a
// line of the retired "ctrl" kind is refused on resume with
// fault.ErrBadPlan, not resumed with the line's faults left out.
func TestResumeRefusesRetiredFaultKind(t *testing.T) {
	s, err := New(specFor(t, "", true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, s, 333)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck.Plan += "@500 ctrl stage=1 op=R out=0 addr=3\n"
	path := filepath.Join(t.TempDir(), "ctrl.ckpt")
	if err := Save(path, ck); err != nil {
		t.Fatal(err)
	}
	if _, err := Resume(path, Options{}); !errors.Is(err, fault.ErrBadPlan) || !strings.Contains(err.Error(), `unknown fault kind "ctrl"`) {
		t.Fatalf("resume: %v, want fault.ErrBadPlan naming the ctrl kind", err)
	}
}

// TestCheckpointBytesPinned pins the pmckpt v3 file bytes (header and
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
		{"plain", "dt:alpha=2", false, 0x172e1298dfaa382c, 13203},
		{"faultplan", "", true, 0xa2328256f6ed5433, 14645},
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

// TestParentV2BodyReencodes: pmckpt v3 drops the stage bypass's fields and
// moves nothing else. The v2 file of TestCheckpointBytesPinned's faultplan
// row, written by the build before the bypass was retired, decoded into this
// build's structs, marked v3 and encoded as Save encodes it, is byte for
// byte the body this build writes for the same session at the same cycle.
func TestParentV2BodyReencodes(t *testing.T) {
	body := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data[bytes.IndexByte(data, '\n')+1:]
	}
	var ck Checkpoint
	if err := json.Unmarshal(body(filepath.Join("testdata", "parent-v2.ckpt")), &ck); err != nil {
		t.Fatal(err)
	}
	if ck.Format != 2 {
		t.Fatalf("testdata/parent-v2.ckpt declares format v%d", ck.Format)
	}
	ck.Format = FormatVersion
	got, err := json.Marshal(&ck)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(specFor(t, "", true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, s, 333)
	path := filepath.Join(t.TempDir(), "v3.ckpt")
	if err := s.CheckpointTo(path); err != nil {
		t.Fatal(err)
	}
	if want := body(path); !bytes.Equal(got, want) {
		t.Fatalf("the re-encoded v2 body (%d bytes) is not the v3 body (%d bytes)", len(got), len(want))
	}
}

// TestUnknownCounterNameDropped: a counter name that names no count — in
// the switch's counts or in the fault engine's tallies — restores to
// nothing. The switch's counts decode into a struct, which has no field
// for it, and the engine reads back only its kinds' names; the checkpoint
// taken after the restore is the one taken before it, byte for byte.
func TestUnknownCounterNameDropped(t *testing.T) {
	s, err := New(specFor(t, "", true), Options{})
	if err != nil {
		t.Fatal(err)
	}
	stepTo(t, s, 333)
	ck, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	const open = `"Counters":{`
	if n := bytes.Count(want, []byte(open)); n != 2 {
		t.Fatalf("%d counter sets in the body, want the switch's and the engine's", n)
	}
	forged := bytes.ReplaceAll(want, []byte(open), []byte(open+`"applied-meteor":7,`))
	var back Checkpoint
	if err := json.Unmarshal(forged, &back); err != nil {
		t.Fatal(err)
	}
	r, err := ResumeFrom(&back, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ck, err = r.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(ck)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("restore kept the unknown name:\n got  %s\n want %s", got, want)
	}
}

// TestParentV1FileRefused: a file of an earlier format is refused on load
// with an error that names both formats and says how to get a file this
// build reads. The v1 file was written by the build before the switch owned
// its input rows, in an ECC dirty window where that build ran waves per
// stage; the v2 file by the build before the stage bypass was retired.
func TestParentV1FileRefused(t *testing.T) {
	for _, r := range []struct {
		name string
		ver  int
	}{{"parent-ecc-window.ckpt", 1}, {"parent-v2.ckpt", 2}} {
		t.Run(r.name, func(t *testing.T) {
			_, err := Resume(filepath.Join("testdata", r.name), Options{})
			if err == nil {
				t.Fatalf("a v%d file resumed", r.ver)
			}
			for _, sub := range []string{fmt.Sprintf("format v%d", r.ver), fmt.Sprintf("reads v%d", FormatVersion), "re-create"} {
				if !strings.Contains(err.Error(), sub) {
					t.Fatalf("error %q does not say %q", err, sub)
				}
			}
		})
	}
}
