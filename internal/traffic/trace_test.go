package traffic

import "testing"

// TestTraceReplaysSchedule: a slot-level trace stream emits one schedule row
// per slot, then stays idle.
func TestTraceReplaysSchedule(t *testing.T) {
	sched := [][]int{
		{1, NoArrival, 0, NoArrival},
		{NoArrival, NoArrival, NoArrival, NoArrival},
		{3, 2, 1, 0},
	}
	s := slotStream(t, Config{Kind: Trace, N: 4, Schedule: sched})
	dst := make([]int, 4)
	for slot, want := range sched {
		n := s.Heads(dst)
		wantN := 0
		for i, d := range want {
			if d != NoArrival {
				wantN++
			}
			if dst[i] != d {
				t.Fatalf("slot %d input %d: %d, want %d", slot, i, dst[i], d)
			}
		}
		if n != wantN {
			t.Fatalf("slot %d: n=%d, want %d", slot, n, wantN)
		}
	}
	// Past the schedule: idle forever.
	for slot := 0; slot < 10; slot++ {
		if n := s.Heads(dst); n != 0 {
			t.Fatalf("post-schedule slot %d produced %d arrivals", slot, n)
		}
	}
}

// TestTraceValidation: building a slot-level trace stream refuses a short
// row and an out-of-range destination, and accepts an empty schedule.
func TestTraceValidation(t *testing.T) {
	if _, err := NewCellStream(Config{Kind: Trace, N: 4, Schedule: [][]int{{0, 1}}}, 1); err == nil {
		t.Fatal("short row accepted")
	}
	if _, err := NewCellStream(Config{Kind: Trace, N: 4, Schedule: [][]int{{0, 1, 2, 9}}}, 1); err == nil {
		t.Fatal("out-of-range destination accepted")
	}
	if _, err := NewCellStream(Config{Kind: Trace, N: 4}, 1); err != nil {
		t.Fatalf("empty trace rejected: %v", err)
	}
	if Trace.String() != "trace" {
		t.Fatal("Stringer")
	}
}
