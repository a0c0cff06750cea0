package ckpt

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pipemem/internal/fault"
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
// keep the same waves off the wave commit as the uninterrupted one. With sparse
// set the traffic is the bursty load-0.05 stream instead of Bernoulli 0.9:
// its gaps are hundreds of cycles long and the stream has drawn them ahead,
// so a cut lands where the generator has run past the checkpointed cycle —
// mid-gap, or on the horizon cycle with the resume port's start already
// drawn — and the checkpoint must hold the generator as of the cut. With
// links set the inputs sit behind CRC links under the matrix's wire-fault
// plan, so a cut lands inside a transfer, a retransmission or a backoff,
// or with arrivals queued behind one.
func FuzzCheckpointCycle(f *testing.F) {
	f.Add(uint16(0), uint64(1), false, false, false)
	f.Add(uint16(1), uint64(7), false, false, false)
	f.Add(uint16(250), uint64(42), false, false, false)
	f.Add(uint16(399), uint64(3), false, false, false)
	f.Add(uint16(450), uint64(9), false, false, false) // inside the drain tail
	f.Add(uint16(41), uint64(19), true, false, false)  // the cycle after the first upset
	f.Add(uint16(93), uint64(19), true, false, false)
	f.Add(uint16(214), uint64(5), true, false, false)
	f.Add(uint16(0), uint64(11), true, false, false)
	f.Add(uint16(300), uint64(42), false, true, false) // mid-gap: drawn ahead from 197 to 360
	f.Add(uint16(360), uint64(42), false, true, false) // the horizon cycle, resume port 2
	// The same gap from the runner's side: the switch is idle from cycle 199
	// and Steps 199 to 359 coast (no Tick, no Drain). A cut before the first,
	// after the first, before the last — 300 above is inside, 360 after.
	f.Add(uint16(199), uint64(42), false, true, false)
	f.Add(uint16(200), uint64(42), false, true, false)
	f.Add(uint16(359), uint64(42), false, true, false)
	f.Add(uint16(1300), uint64(42), true, true, false) // mid-gap, upsets in flight
	f.Add(uint16(1505), uint64(42), true, true, false) // the horizon cycle, resume port 1
	f.Add(uint16(117), uint64(7), false, true, false)  // the horizon cycle, resume port 3
	f.Add(uint16(3100), uint64(7), false, true, false) // inside the drain tail
	f.Add(uint16(100), uint64(19), false, false, true) // a link backing off, a word lost on another, arrivals queued
	f.Add(uint16(102), uint64(19), false, false, true) // inside a retransmission
	f.Add(uint16(402), uint64(19), false, false, true) // past the window, 51 cells still held by the links
	f.Add(uint16(214), uint64(5), true, false, true)   // links in front of an ECC switch with upsets in flight
	f.Add(uint16(1300), uint64(42), false, true, true) // links under the sparse stream

	f.Fuzz(func(t *testing.T, steps uint16, seed uint64, ecc, sparse, links bool) {
		spec := specFor(t, "dt:alpha=2", ecc)
		if links {
			wires := linkSpec(t, "").Plan.String()
			if ecc {
				wires += spec.Plan.String()
			}
			var err error
			if spec.Plan, err = fault.Parse(wires); err != nil {
				t.Fatal(err)
			}
			spec.LinkProtect, spec.FaultSeed = true, 5
		}
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

// FuzzCheckpointFile treats a whole checkpoint file as the trust boundary
// it is. The fuzzer's bytes are the body; the header in front of them is
// written for them, length and CRC recomputed, so every mutation reaches
// JSON decoding and restore validation instead of stopping at the CRC.
// Load and ResumeFrom either refuse the file with an error or yield a
// session that runs 4·k cycles with the switch's invariants intact —
// never a panic. The seeds are the v1 file in testdata/ (a body of the
// schema before this one), the files of TestCheckpointBytesPinned's two
// specs, and openWaveSpec's cut at cycle 402 (reads open under a stuck
// bank, a flipped input row; the seed must hold an open slot). A body is some 15 KB, so the default minute of
// minimizing each new input would take most of a short run: make fuzz runs
// this target with -fuzzminimizetime 5s.
func FuzzCheckpointFile(f *testing.F) {
	data, err := os.ReadFile(filepath.Join("testdata", "parent-ecc-window.ckpt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(data[bytes.IndexByte(data, '\n')+1:])
	for _, seed := range []struct {
		spec Spec
		cut  int64
		open bool // the cut must hold an open ring slot
	}{{specFor(f, "dt:alpha=2", false), 333, false}, {specFor(f, "", true), 333, false}, {openWaveSpec(f), 402, true}} {
		s, err := New(seed.spec, Options{})
		if err != nil {
			f.Fatal(err)
		}
		stepTo(f, s, seed.cut)
		ck, err := s.Checkpoint()
		if err != nil {
			f.Fatal(err)
		}
		if seed.open && !slices.Contains(ck.Switch.Open, true) {
			f.Fatal("the open-wave seed holds no open ring slot")
		}
		body, err := json.Marshal(ck)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		header := fmt.Sprintf("pmckpt v%d len=%d crc=%08x\n", FormatVersion, len(body), crc32.ChecksumIEEE(body))
		if err := os.WriteFile(path, append([]byte(header), body...), 0o600); err != nil {
			t.Fatal(err)
		}
		ck, err := Load(path)
		if err != nil {
			return
		}
		r, err := ResumeFrom(ck, Options{})
		if err != nil {
			return
		}
		if _, _, err := r.StepN(4 * int64(r.Switch().Config().Stages)); err != nil {
			t.Fatal(err)
		}
		if err := r.Switch().AuditInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzLinkState treats the link stage of a checkpoint as the trust
// boundary it is: whatever bytes stand in for it, ResumeFrom either refuses
// them with an error or yields a session that runs — 4·k cycles here —
// without a panic and with the switch's invariants intact.
func FuzzLinkState(f *testing.F) {
	s, err := New(linkSpec(f, ""), Options{})
	if err != nil {
		f.Fatal(err)
	}
	base := stepUntil(f, s, linkCuts["mid-backoff"])
	good, err := json.Marshal(base.Links)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	for _, edit := range [][2]string{
		{`"Pos":`, `"Pos":9`}, {`"Attempts":`, `"Attempts":7`}, {`"Dst":`, `"Dst":-`},
		{`"ResumeAt":`, `"ResumeAt":99999`}, {`"Seq":`, `"Seq":1`}, {`"Wire":[`, `"Wire":[70000,`},
		{`"Lost":[`, `"Lost":[true,`}, {`"MaxRetries":4`, `"MaxRetries":63`}, {`"Links":[`, `"Links":[{},`},
	} {
		f.Add([]byte(strings.Replace(string(good), edit[0], edit[1], 1)))
	}
	f.Add([]byte(`{"MaxRetries":4,"Links":[{},{},{},{}]}`))
	f.Add([]byte(`null`))

	k := int64(base.CellLen)
	f.Fuzz(func(t *testing.T, data []byte) {
		st := new(fault.StageState)
		if json.Unmarshal(data, st) != nil {
			return
		}
		ck := *base
		ck.Links = st
		r, err := ResumeFrom(&ck, Options{})
		if err != nil {
			return
		}
		if _, _, err := r.StepN(4 * k); err != nil {
			t.Fatal(err)
		}
		if err := r.Switch().AuditInvariants(); err != nil {
			t.Fatal(err)
		}
	})
}
