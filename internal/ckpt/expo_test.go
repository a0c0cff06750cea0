package ckpt

import (
	"bufio"
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/obs"
	"pipemem/internal/traffic"
)

var updateExpo = flag.Bool("update", false, "rewrite testdata/exposition.golden")

// TestObserverExpositionPinned pins everything a session's observer
// publishes — every counter, gauge, gauge-vector slot and histogram
// bucket, sum and count — after SyncObserver at every 1000-cycle boundary
// and at the end of the run, for five runs that between them reach every
// metric a fault-free switch feeds: the 8×8 permutation steady point, a
// saturated 4×4 switch of 6 cells (overrun drops, stalls), hotspot traffic
// under dt:alpha=2 (policy drops), a push-out policy, and a steady run
// checkpointed halfway and resumed under a fresh observer, whose counts
// start at the resume. Where and how often the switch publishes is free;
// what a synced observer reads is not.
func TestObserverExpositionPinned(t *testing.T) {
	sw8 := core.Config{Ports: 8, WordBits: 16, Cells: 256, CutThrough: true}
	steady := Spec{Switch: sw8, Cycles: 3000,
		Traffic: traffic.Config{Kind: traffic.Permutation, N: 8, Load: 1, Seed: 42}}
	resumed := steady
	resumed.Cycles = 4000
	cases := []struct {
		name string
		spec Spec
		cut  int64 // checkpoint and resume here (0: never)
		// nonzero names the counters the case exists to reach.
		nonzero []string
	}{
		{name: "steady8", spec: steady,
			nonzero: []string{"pipemem_cut_through_waves_total", "pipemem_read_waves_total"}},
		{name: "saturated4x6", spec: Spec{
			Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 6, CutThrough: true},
			Traffic: traffic.Config{Kind: traffic.Saturation, N: 4, Seed: 3},
			Cycles:  3000,
		}, nonzero: []string{"pipemem_drop_overrun_total", "pipemem_init_stalls_total"}},
		{name: "hotspot-dt", spec: Spec{
			Switch:  core.Config{Ports: 8, WordBits: 16, Cells: 48, CutThrough: true},
			Traffic: traffic.Config{Kind: traffic.Hotspot, N: 8, Load: 0.9, HotFrac: 0.5, Seed: 7},
			Policy:  "dt:alpha=2",
			Cycles:  3000,
		}, nonzero: []string{"pipemem_drop_policy_total"}},
		{name: "pushout", spec: Spec{
			Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 12, CutThrough: true},
			Traffic: traffic.Config{Kind: traffic.Hotspot, N: 4, Load: 0.95, HotFrac: 0.6, Seed: 5},
			Policy:  "pushout",
			Cycles:  3000,
		}, nonzero: []string{"pipemem_drop_pushout_total"}},
		{name: "resumed8", spec: resumed, cut: 1500,
			nonzero: []string{"pipemem_delivered_total"}},
	}
	var out bytes.Buffer
	for _, tc := range cases {
		reg := obs.NewRegistry()
		s, err := New(tc.spec, Options{Observer: core.NewObserver(reg, tc.spec.Switch.Ports)})
		if err != nil {
			t.Fatal(err)
		}
		snap := func(at string) {
			s.Switch().SyncObserver()
			fmt.Fprintf(&out, "== %s %s cycle=%d\n", tc.name, at, s.Switch().Cycle())
			writeSamples(t, &out, reg)
		}
		for done := false; !done; {
			c := s.Switch().Cycle()
			n := 1000 - c%1000
			if tc.cut > c && tc.cut-c < n {
				n = tc.cut - c
			}
			var adv int64
			if adv, done, err = s.StepN(n); err != nil {
				t.Fatal(err)
			}
			switch c += adv; {
			case c == tc.cut:
				snap("cut")
				ck, err := s.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				reg = obs.NewRegistry()
				if s, err = ResumeFrom(ck, Options{Observer: core.NewObserver(reg, tc.spec.Switch.Ports)}); err != nil {
					t.Fatal(err)
				}
			case c%1000 == 0:
				snap("boundary")
			}
		}
		if _, err := s.Finish(); err != nil {
			t.Fatal(err)
		}
		snap("end")
		counters := reg.Snapshot().Counters
		for _, name := range tc.nonzero {
			if counters[name] == 0 {
				t.Errorf("%s: %s stayed 0; the case no longer reaches what it pins", tc.name, name)
			}
		}
	}
	path := filepath.Join("testdata", "exposition.golden")
	if *updateExpo {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got := out.Bytes(); !bytes.Equal(got, want) {
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("exposition diverges at line %d:\n got  %s\n want %s", i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("exposition has %d lines, golden %d", len(gl), len(wl))
	}
}

// writeSamples appends reg's Prometheus exposition without the # HELP and
// # TYPE preambles: the samples are what is pinned.
func writeSamples(t *testing.T, w *bytes.Buffer, reg *obs.Registry) {
	t.Helper()
	var b bytes.Buffer
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&b)
	for sc.Scan() {
		if line := sc.Text(); !strings.HasPrefix(line, "#") {
			w.WriteString(line)
			w.WriteByte('\n')
		}
	}
}
