package stats

import (
	"strings"
	"testing"
)

// Restoring a Mean's exported state must reproduce subsequent accumulation
// bit for bit — the property the checkpoint layer's replay equivalence
// rests on.
func TestMeanStateRoundTrip(t *testing.T) {
	var a, b Mean
	for i := 0; i < 1000; i++ {
		a.Add(float64(i%37) * 0.125)
	}
	b.RestoreState(a.State())
	for i := 0; i < 500; i++ {
		x := float64(i%11) * 3.5
		a.Add(x)
		b.Add(x)
	}
	if a != b {
		t.Fatalf("restored Mean diverged: %+v vs %+v", a, b)
	}
}

func TestHistStateRoundTrip(t *testing.T) {
	a := NewHist(64)
	for i := int64(0); i < 200; i++ {
		a.Add(i % 80) // exercises overflow too
	}
	b := NewHist(64)
	if err := b.RestoreState(a.State()); err != nil {
		t.Fatal(err)
	}
	for i := int64(0); i < 100; i++ {
		a.Add(i % 70)
		b.Add(i % 70)
	}
	if a.N() != b.N() || a.Overflow() != b.Overflow() || a.Mean() != b.Mean() || a.Max() != b.Max() {
		t.Fatalf("restored Hist diverged: %+v vs %+v", a, b)
	}
	for v := int64(0); v < 64; v++ {
		if a.Count(v) != b.Count(v) {
			t.Fatalf("bucket %d: %d vs %d", v, a.Count(v), b.Count(v))
		}
	}
}

func TestHistRestoreSizeMismatch(t *testing.T) {
	a := NewHist(8)
	if err := NewHist(16).RestoreState(a.State()); err == nil {
		t.Fatal("restore across bucket counts must fail")
	}
}

// A histogram state no run of Add produces is refused, naming the field,
// and leaves the histogram as it was.
func TestHistRestoreRejectsImpossible(t *testing.T) {
	src := NewHist(8)
	for _, v := range []int64{1, 3, 3, 12} {
		src.Add(v)
	}
	for _, tc := range []struct {
		name, want string
		edit       func(*HistState)
	}{
		{"negative bucket", "Buckets[3]", func(st *HistState) { st.Buckets[3], st.Total = -1000, -997 }},
		{"negative overflow", "Overflow", func(st *HistState) { st.Overflow, st.Total = -4, -1 }},
		{"total above counts", "Total", func(st *HistState) { st.Total = 7 }},
		{"total below counts", "Total", func(st *HistState) { st.Total = 3 }},
		{"max below buckets", "Max", func(st *HistState) { st.Overflow, st.Total, st.Max = 0, 3, 2 }},
		{"max below overflow", "Max", func(st *HistState) { st.Max = 7 }},
		{"negative max", "Max", func(st *HistState) { *st = NewHist(8).State(); st.Max = -1 }},
		{"negative sum", "Sum", func(st *HistState) { st.Sum = -1 }},
		{"counts overflow int64", "overflow int64", func(st *HistState) { st.Buckets[1], st.Buckets[3] = 1<<62, 1<<62 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st := src.State()
			tc.edit(&st)
			h := NewHist(8)
			h.Add(2)
			err := h.RestoreState(st)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("RestoreState error %v, want one naming %q", err, tc.want)
			}
			if h.N() != 1 || h.Count(2) != 1 {
				t.Fatalf("a refused restore changed the histogram: %+v", h.State())
			}
		})
	}
	// The checks refuse nothing Add produces: empty, resolved-only and
	// overflowed states all restore.
	for _, vs := range [][]int64{nil, {0}, {7, 7, 2}, {8}, {9, 0}} {
		h := NewHist(8)
		for _, v := range vs {
			h.Add(v)
		}
		if err := NewHist(8).RestoreState(h.State()); err != nil {
			t.Fatalf("samples %v: %v", vs, err)
		}
	}
}
