package core

import (
	"fmt"
	"hash/fnv"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// dualDigest drives a DualSwitch from one traffic schedule plus a drain
// tail and folds every departure, in completion order, into one FNV-1a
// digest: sequence number, output, the three timestamps and the initiation
// delay — everything a departure observably is. It also returns the
// departure and overrun counts, so a digest cannot match vacuously.
func dualDigest(t *testing.T, cfg Config, tc traffic.Config, cycles int) (sum uint64, deps int, overrun int64) {
	t.Helper()
	d := mustDual(t, cfg)
	k := d.Config().Stages
	sched := genSchedule(t, tc, k, cycles)
	heads := make([]*cell.Cell, cfg.Ports)
	var seq uint64
	h := fnv.New64a()
	for c := int64(0); c < int64(cycles+8*k*cfg.Cells); c++ {
		d.Tick(headsFor(rowAt(sched, c), heads, &seq, k, cfg.WordBits, 1))
		for _, dep := range d.Drain() {
			if !dep.Cell.Equal(dep.Expected) {
				t.Fatalf("cycle %d: cell %d corrupted on output %d", c, dep.Expected.Seq, dep.Output)
			}
			fmt.Fprintf(h, "seq=%d out=%d in=%d headout=%d tailout=%d delay=%d\n",
				dep.Expected.Seq, dep.Output, dep.HeadIn, dep.HeadOut, dep.TailOut, dep.InitDelay)
			deps++
		}
	}
	if d.Resident() > 0 {
		t.Fatal("dual switch still busy after the drain tail")
	}
	return h.Sum64(), deps, d.Counters().Get("drop-overrun")
}

// TestDualGoldenDigest pins the §3.5 half-quantum organization departure
// by departure: which cell leaves on which output at which cycles, under
// permutation, Bernoulli 0.8 and saturation traffic, cut-through and
// store-and-forward, at n = 4 and 8. Any change to DualSwitch's
// arbitration, bank choice, wave timing or link-side bookkeeping shows up
// as a digest mismatch.
func TestDualGoldenDigest(t *testing.T) {
	type pin struct {
		sum     uint64
		deps    int
		overrun int64
	}
	golden := map[string]pin{
		"perm/n=4/ct":    {0x719cb42175eb405f, 2000, 0},
		"perm/n=4/sf":    {0xf8518362c213bc7f, 2000, 0},
		"perm/n=8/ct":    {0x80d12705ed5c0023, 2000, 0},
		"perm/n=8/sf":    {0xf26220fb73c8f2f1, 1762, 238},
		"bern0.8/n=4/ct": {0x7b19a90fe8fce42, 1619, 1},
		"bern0.8/n=4/sf": {0x6fb9c4c1c924f742, 1605, 15},
		"bern0.8/n=8/ct": {0xb024471a5d672ee0, 1601, 14},
		"bern0.8/n=8/sf": {0x669ca3219b97f457, 1489, 126},
		"sat/n=4/ct":     {0x9a0a61ee4ac5eec6, 1825, 175},
		"sat/n=4/sf":     {0x4dfb19c1fc4ef629, 1707, 293},
		"sat/n=8/ct":     {0x30fc6ce2606e78e6, 1602, 398},
		"sat/n=8/sf":     {0x37037536fbe1c398, 1496, 504},
	}
	kinds := []struct {
		name string
		tc   traffic.Config
	}{
		{"perm", traffic.Config{Kind: traffic.Permutation, Load: 1, Seed: 7}},
		{"bern0.8", traffic.Config{Kind: traffic.Bernoulli, Load: 0.8, Seed: 19}},
		{"sat", traffic.Config{Kind: traffic.Saturation, Seed: 23}},
	}
	for _, kind := range kinds {
		for _, n := range []int{4, 8} {
			for _, ct := range []bool{true, false} {
				name := fmt.Sprintf("%s/n=%d/%s", kind.name, n, map[bool]string{true: "ct", false: "sf"}[ct])
				t.Run(name, func(t *testing.T) {
					tc := kind.tc
					tc.N = n
					cfg := Config{Ports: n, WordBits: 16, Cells: 8, CutThrough: ct}
					sum, deps, overrun := dualDigest(t, cfg, tc, 2000)
					if got := (pin{sum, deps, overrun}); got != golden[name] {
						t.Fatalf("digest %#x over %d departures, %d overruns; golden %#x over %d, %d",
							sum, deps, overrun, golden[name].sum, golden[name].deps, golden[name].overrun)
					}
				})
			}
		}
	}
}
