package fabric

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"pipemem/internal/traffic"
)

// stepErrRun drives a 16-terminal radix-4 butterfly at saturation for 2,000
// cycles; with bad, a stale sequence number is injected at cycle 500 too.
// Every Step error but the one that inject earns fails the test, and so does
// a failed Audit at the end.
func stepErrRun(t *testing.T, workers int, bad bool) *Net {
	t.Helper()
	f := mustNet(t, Config{Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 16,
		Credits: 4, CutThrough: true, Workers: workers})
	t.Cleanup(f.Close)
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 3, N: 16}, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]int, 16)
	var seq uint64
	for c := 0; c < 2000; c++ {
		cs.Heads(heads)
		for term, dst := range heads {
			if dst != traffic.NoArrival {
				seq++
				f.Inject(term, dst, seq)
			}
		}
		if bad && c == 500 {
			f.Inject(0, 1, 1)
		}
		err := f.Step()
		if bad && c == 500 {
			if err == nil {
				t.Fatal("a stale sequence number stepped without an error")
			}
			continue
		}
		if err != nil {
			t.Fatalf("cycle %d: %v", c, err)
		}
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	return f
}

// TestStepStepsOnAfterAnError: a cycle whose Step reports an error has still
// ticked every node, so the clock advances with it and the net steps on as
// if the rejected inject had never been offered.
func TestStepStepsOnAfterAnError(t *testing.T) {
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			want, got := stepErrRun(t, w, false), stepErrRun(t, w, true)
			if got.Cycle() != want.Cycle() {
				t.Fatalf("cycle %d after the error run, %d without", got.Cycle(), want.Cycle())
			}
			if got.Delivered() != want.Delivered() || got.Drops() != want.Drops() ||
				got.Latency().Mean() != want.Latency().Mean() {
				t.Fatalf("delivered %d, drops %d, mean latency %v; without the bad inject %d, %d, %v",
					got.Delivered(), got.Drops(), got.Latency().Mean(), want.Delivered(), want.Drops(), want.Latency().Mean())
			}
		})
	}
}

// TestCorruptEjectionCountedOnce: one memory upset under a cell buffered in
// a last-stage node corrupts that one cell, which Step names and Corrupt
// counts once. The bad ejection retires its flight: the fabric drains to
// nothing in flight, the bad ejection closes the conservation sum, and
// Audit names the ejection, not a leak.
func TestCorruptEjectionCountedOnce(t *testing.T) {
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			f := mustNet(t, Config{Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 16,
				Credits: 4, CutThrough: true, Workers: w})
			defer f.Close()
			cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 3, N: 16}, f.CellWords())
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Drive(cs, 500); err != nil {
				t.Fatal(err)
			}
			upset := false
			for i := 0; i < 4 && !upset; i++ {
				nd := f.NodeAt(f.Stages()-1, i)
				for a := 0; a < nd.Config().Cells && !upset; a++ {
					if nd.AddrStable(a) {
						nd.InjectMemoryFault(5, a, 0x0100)
						upset = true
					}
				}
			}
			if !upset {
				t.Fatal("no last-stage node holds a stable address")
			}
			var errs []error
			for c := 0; c < 400 || f.InFlight() > 0; c++ {
				if c == 20_000 {
					t.Fatalf("%d cells still in flight after %d cycles", f.InFlight(), c)
				}
				if err := f.Step(); err != nil {
					errs = append(errs, err)
				}
			}
			if len(errs) != 1 || !regexp.MustCompile(`cell \d+ corrupted`).MatchString(errs[0].Error()) {
				t.Fatalf("step errors %v, want one naming the corrupted cell", errs)
			}
			if n := f.Corrupt(); n != 1 {
				t.Fatalf("Corrupt() = %d after one upset, want 1", n)
			}
			if f.Injected() != f.Delivered()+f.Drops()+f.Corrupt() {
				t.Fatalf("injected %d != delivered %d + dropped %d + corrupt %d", f.Injected(), f.Delivered(), f.Drops(), f.Corrupt())
			}
			if err := f.Audit(); err == nil || !strings.Contains(err.Error(), "1 corrupt or misrouted ejections") {
				t.Fatalf("Audit: %v, want the one bad ejection", err)
			}
		})
	}
}
