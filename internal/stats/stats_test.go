package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"testing"
	"testing/quick"
)

func TestMeanBasics(t *testing.T) {
	var m Mean
	if m.Mean() != 0 || m.Var() != 0 || m.N() != 0 {
		t.Fatal("zero value not empty")
	}
	for _, x := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		m.Add(x)
	}
	if m.N() != 8 {
		t.Fatalf("N = %d", m.N())
	}
	if got := m.Mean(); math.Abs(got-5) > 1e-12 {
		t.Fatalf("mean = %v, want 5", got)
	}
	// Population variance of this classic data set is 4; sample variance
	// is 4*8/7.
	if got := m.Var(); math.Abs(got-32.0/7.0) > 1e-12 {
		t.Fatalf("var = %v, want %v", got, 32.0/7.0)
	}
}

func TestMeanMergeMatchesSequential(t *testing.T) {
	f := func(a, b []float64) bool {
		var all, ma, mb Mean
		for _, x := range a {
			sanitize(&x)
			all.Add(x)
			ma.Add(x)
		}
		for _, x := range b {
			sanitize(&x)
			all.Add(x)
			mb.Add(x)
		}
		ma.Merge(&mb)
		return ma.N() == all.N() &&
			closeEnough(ma.Mean(), all.Mean()) &&
			closeEnough(ma.Var(), all.Var())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func sanitize(x *float64) {
	if math.IsNaN(*x) || math.IsInf(*x, 0) {
		*x = 0
	}
	// Keep magnitudes moderate so float comparisons stay meaningful.
	*x = math.Mod(*x, 1e6)
}

func closeEnough(a, b float64) bool {
	if a == b {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return math.Abs(a-b) <= 1e-9*math.Max(scale, 1)
}

func TestHist(t *testing.T) {
	h := NewHist(10)
	for i := int64(0); i < 5; i++ {
		h.Add(i)
	}
	h.Add(100) // overflow
	if h.N() != 6 {
		t.Fatalf("N = %d", h.N())
	}
	if h.Count(3) != 1 || h.Count(50) != 1 {
		t.Fatal("counts wrong")
	}
	if h.Max() != 100 {
		t.Fatalf("Max = %d", h.Max())
	}
	want := (0 + 1 + 2 + 3 + 4 + 100) / 6.0
	if math.Abs(h.Mean()-want) > 1e-12 {
		t.Fatalf("Mean = %v, want %v", h.Mean(), want)
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewHist(100)
	for i := int64(1); i <= 100; i++ {
		h.Add(i - 1) // values 0..99 once each
	}
	if q := h.Quantile(0.5); q != 49 {
		t.Fatalf("median = %d, want 49", q)
	}
	if q := h.Quantile(0.99); q != 98 {
		t.Fatalf("p99 = %d, want 98", q)
	}
	if q := h.Quantile(1.0); q != 99 {
		t.Fatalf("p100 = %d, want 99", q)
	}
}

func TestHistNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHist(4).Add(-1)
}

func TestBatchMeans(t *testing.T) {
	b := NewBatchMeans(100)
	if !math.IsInf(b.HalfWidth95(), 1) {
		t.Fatal("half-width with no batches must be +Inf")
	}
	rng := rand.New(rand.NewPCG(7, 7))
	for i := 0; i < 100_000; i++ {
		b.Add(rng.Float64()) // uniform(0,1): mean 0.5
	}
	if b.Batches() != 1000 {
		t.Fatalf("Batches = %d", b.Batches())
	}
	if math.Abs(b.Mean()-0.5) > 0.01 {
		t.Fatalf("Mean = %v, want ≈0.5", b.Mean())
	}
	hw := b.HalfWidth95()
	if hw <= 0 || hw > 0.01 {
		t.Fatalf("HalfWidth95 = %v, implausible", hw)
	}
	// The true mean should be inside the interval (w.h.p.).
	if math.Abs(b.Mean()-0.5) > 3*hw {
		t.Fatalf("true mean outside 3× interval: mean=%v hw=%v", b.Mean(), hw)
	}
}

func TestBatchMeansPanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBatchMeans(0)
}

// TestHistGrowsOnDemand: buckets are allocated up to the largest sample
// seen — 64 first, doubling, capped at the limit — and every accessor and
// the exported state read exactly what a histogram holding its full range
// from the start reads.
func TestHistGrowsOnDemand(t *testing.T) {
	const limit = 1000
	h := NewHist(limit)
	ref := struct {
		buckets              []int64
		overflow, total, max int64
		sum                  float64
	}{buckets: make([]int64, limit)}
	if len(h.buckets) != 0 {
		t.Fatalf("a fresh histogram holds %d buckets, want 0", len(h.buckets))
	}
	add := func(v int64) {
		h.Add(v)
		if v < limit {
			ref.buckets[v]++
		} else {
			ref.overflow++
		}
		ref.total++
		ref.sum += float64(v)
		ref.max = max(ref.max, v)
	}
	rng := rand.New(rand.NewPCG(3, 5))
	for i, want := range []struct{ v, size int64 }{
		{0, 64}, {63, 64}, {64, 128}, {5, 128}, {300, 512}, {limit, 512}, {limit - 1, limit}, {5000, limit},
	} {
		add(want.v)
		add(rng.Int64N(int64(len(h.buckets)))) // inside the allocated range: no growth
		if int64(len(h.buckets)) != want.size {
			t.Fatalf("step %d: after Add(%d) the histogram holds %d buckets, want %d", i, want.v, len(h.buckets), want.size)
		}
		for v := int64(0); v <= limit; v++ {
			w := ref.overflow
			if v < limit {
				w = ref.buckets[v]
			}
			if got := h.Count(v); got != w {
				t.Fatalf("step %d: Count(%d) = %d, want %d", i, v, got, w)
			}
		}
		for _, q := range []float64{0, 0.3, 0.5, 0.9, 0.99, 1} {
			target, cum, w := int64(math.Ceil(q*float64(ref.total))), int64(0), int64(limit)
			for v, c := range ref.buckets {
				if cum += c; cum >= max(target, 1) {
					w = int64(v)
					break
				}
			}
			if got := h.Quantile(q); got != w {
				t.Fatalf("step %d: Quantile(%v) = %d, want %d", i, q, got, w)
			}
		}
		st := h.State()
		if !slices.Equal(st.Buckets, ref.buckets) || st.Overflow != ref.overflow || st.Total != ref.total ||
			st.Sum != ref.sum || st.Max != ref.max || h.Mean() != ref.sum/float64(ref.total) || h.Limit() != limit {
			t.Fatalf("step %d: state %+v diverges from the full-range reference", i, st)
		}
	}
	// A restore allocates up to the largest value it holds, not the limit.
	r := NewHist(limit)
	small := NewHist(limit)
	small.Add(70)
	small.Add(3000)
	if err := r.RestoreState(small.State()); err != nil {
		t.Fatal(err)
	}
	if len(r.buckets) != 128 || r.Count(70) != 1 || r.Overflow() != 1 {
		t.Fatalf("restored histogram holds %d buckets (want 128), Count(70) %d, Overflow %d", len(r.buckets), r.Count(70), r.Overflow())
	}
	// A limit below the first allocation is the cap.
	tiny := NewHist(4)
	tiny.Add(2)
	if len(tiny.buckets) != 4 {
		t.Fatalf("NewHist(4) grew to %d buckets, want 4", len(tiny.buckets))
	}
}

// TestHistOverflowBoundary pins the overflow boundary exactly: Limit-1 is
// the last individually-resolved value, Limit the first overflowed one.
// Mean and Max keep the true magnitudes; Count and Quantile saturate.
func TestHistOverflowBoundary(t *testing.T) {
	h := NewHist(4)
	if h.Limit() != 4 {
		t.Fatalf("Limit() = %d, want 4", h.Limit())
	}
	h.Add(3)   // last resolved value
	h.Add(4)   // first overflow value
	h.Add(100) // deep overflow
	if h.Overflow() != 2 {
		t.Fatalf("Overflow() = %d, want 2", h.Overflow())
	}
	if h.N() != 3 {
		t.Fatalf("N() = %d, want 3", h.N())
	}
	if h.Count(3) != 1 {
		t.Fatalf("Count(3) = %d, want 1", h.Count(3))
	}
	if h.Count(4) != 2 || h.Count(100) != 2 {
		t.Fatalf("beyond-range Count must return the overflow bucket: %d, %d", h.Count(4), h.Count(100))
	}
	if h.Max() != 100 {
		t.Fatalf("Max() = %d, want true magnitude 100", h.Max())
	}
	if want := (3 + 4 + 100) / 3.0; h.Mean() != want {
		t.Fatalf("Mean() = %v, want %v", h.Mean(), want)
	}
	// Upper quantiles saturate at the limit — an underestimate, which is
	// why Overflow must be surfaced alongside them.
	if q := h.Quantile(1); q != 4 {
		t.Fatalf("Quantile(1) = %d, want saturation at Limit 4", q)
	}
	if q := h.Quantile(0.33); q != 3 {
		t.Fatalf("Quantile(0.33) = %d, want 3", q)
	}
}
