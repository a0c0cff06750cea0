package obs

import (
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "a counter")
	g := r.Gauge("g", "a gauge")
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g.Set(7)
	g.Add(-2)
	if got := g.Value(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	g.SetMax(3)
	if got := g.Value(); got != 5 {
		t.Fatalf("SetMax lowered the gauge to %d", got)
	}
	g.SetMax(9)
	if got := g.Value(); got != 9 {
		t.Fatalf("SetMax = %d, want 9", got)
	}
}

// TestNilReceiversAreNoOps pins the contract the switch instrumentation
// relies on: every update and read is safe on a nil metric.
func TestNilReceiversAreNoOps(t *testing.T) {
	var c *Counter
	var g *Gauge
	var v *GaugeVec
	var h *Histogram
	var tr *Tracer
	c.Inc()
	c.Add(3)
	g.Set(1)
	g.Add(1)
	g.SetMax(1)
	v.At(0).Set(1)
	h.Observe(1)
	tr.Emit(Event{Kind: EvStall})
	if c.Value() != 0 || g.Value() != 0 || v.Len() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil metric returned a nonzero value")
	}
	if got := h.Snapshot(); got.Count != 0 || len(got.Buckets) != 0 {
		t.Fatalf("nil histogram snapshot = %+v", got)
	}
	if tr.Ring() != nil {
		t.Fatal("nil tracer ring not empty")
	}
}

func TestGaugeVecBounds(t *testing.T) {
	r := NewRegistry()
	v := r.GaugeVec("depth", "", "output", 4)
	v.At(2).Set(11)
	if got := v.At(2).Value(); got != 11 {
		t.Fatalf("At(2) = %d, want 11", got)
	}
	// Out-of-range indexes return nil, which absorbs updates.
	v.At(-1).Set(1)
	v.At(4).Set(1)
	if v.Len() != 4 {
		t.Fatalf("Len = %d, want 4", v.Len())
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("dup", "")
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r.Counter("dup", "")
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]int64{2, 4, 8})
	for _, v := range []int64{1, 2, 3, 4, 9, 100} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if h.Count() != 6 || h.Sum() != 119 {
		t.Fatalf("count=%d sum=%d, want 6/119", h.Count(), h.Sum())
	}
	// Cumulative: ≤2 → 2 samples, ≤4 → 4, ≤8 → 4, +Inf → 6.
	want := []int64{2, 4, 4, 6}
	for i, b := range s.Buckets {
		if b.N != want[i] {
			t.Fatalf("bucket %d cumulative = %d, want %d (%+v)", i, b.N, want[i], s.Buckets)
		}
	}
	if !s.Buckets[3].Inf {
		t.Fatal("last bucket not +Inf")
	}
}

func TestExpBounds(t *testing.T) {
	got := ExpBounds(2, 2, 4)
	want := []int64{2, 4, 8, 16}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ExpBounds = %v, want %v", got, want)
		}
	}
}

// TestHistogramConcurrentSnapshot checks the torn-read guarantee: a
// snapshot taken under concurrent writes never shows a counted sample
// missing from every bucket (raw bucket total ≥ count).
func TestHistogramConcurrentSnapshot(t *testing.T) {
	h := NewHistogram(ExpBounds(1, 2, 10))
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		var v int64
		for {
			select {
			case <-done:
				return
			default:
				v++
				h.Observe(v % 700)
			}
		}
	}()
	for i := 0; i < 2000; i++ {
		s := h.Snapshot()
		if len(s.Buckets) == 0 {
			t.Fatal("empty snapshot")
		}
		total := s.Buckets[len(s.Buckets)-1].N // cumulative +Inf = raw total
		if total < s.Count {
			t.Fatalf("snapshot %d: bucket total %d < count %d", i, total, s.Count)
		}
	}
	close(done)
	wg.Wait()
}

func TestTracerRingAndSampling(t *testing.T) {
	sink := &MemSink{}
	tr := NewTracer(sink, 4, 1)
	for c := int64(0); c < 6; c++ {
		tr.Emit(Event{Kind: EvWriteWave, Cycle: c, In: 0, Out: -1, Addr: int32(c)})
	}
	ring := tr.Ring()
	if len(ring) != 4 {
		t.Fatalf("ring length = %d, want 4", len(ring))
	}
	// Oldest-first: cycles 2..5 survive.
	for i, e := range ring {
		if e.Cycle != int64(i+2) {
			t.Fatalf("ring[%d].Cycle = %d, want %d", i, e.Cycle, i+2)
		}
	}
	if len(sink.Events) != 6 || sink.Count(EvWriteWave) != 6 {
		t.Fatalf("sink saw %d events, want 6", len(sink.Events))
	}

	// Sampling 1-in-3 keeps every third event and counts the rest.
	tr = NewTracer(nil, 0, 3)
	for c := int64(0); c < 9; c++ {
		tr.Emit(Event{Kind: EvStall, Cycle: c})
	}
	emitted, skipped := tr.Counts()
	if emitted != 3 || skipped != 6 {
		t.Fatalf("emitted=%d skipped=%d, want 3/6", emitted, skipped)
	}
}

func TestTracerRegisterExposesCounts(t *testing.T) {
	r := NewRegistry()
	tr := NewTracer(nil, 0, 2)
	tr.Register(r)
	for i := 0; i < 4; i++ {
		tr.Emit(Event{Kind: EvStall, Cycle: int64(i)})
	}
	s := r.Snapshot()
	if s.Counters["pipemem_trace_events_total"] != 2 ||
		s.Counters["pipemem_trace_events_sampled_out_total"] != 2 {
		t.Fatalf("trace counters = %v", s.Counters)
	}
}

func TestEventKindStrings(t *testing.T) {
	kinds := []EventKind{EvWriteWave, EvReadWave, EvCutThrough, EvWaveEnd, EvStall, EvCRCRetransmit, EvDrop, EvWatchdog, EvCheckpoint}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if s == "unknown" || seen[s] {
			t.Fatalf("kind %d has bad or duplicate wire name %q", k, s)
		}
		seen[s] = true
	}
}

// TestHistShadowFlushMatchesDirect holds the shadow to the histogram it
// feeds, over a ladder small enough for its slot table and one past
// maxSlots, which scans; samples fall below, on and past every bound.
func TestHistShadowFlushMatchesDirect(t *testing.T) {
	for _, bounds := range [][]int64{{2, 4, 8}, ExpBounds(1, 4, 8)} {
		histShadowMatchesDirect(t, bounds)
	}
}

func histShadowMatchesDirect(t *testing.T, bounds []int64) {
	direct := NewHistogram(bounds)
	shadowed := NewHistogram(bounds)
	sh := NewHistShadow(shadowed)
	samples := []int64{1, 2, 3, 5, 9, 100, 4, 4, -3, 0, 8, 16384, 16385, 1 << 40}
	for _, v := range samples {
		direct.Observe(v)
		sh.Observe(v)
	}
	// Nothing is visible until the flush...
	if shadowed.Count() != 0 || shadowed.Sum() != 0 {
		t.Fatalf("shadow leaked before Flush: count=%d sum=%d", shadowed.Count(), shadowed.Sum())
	}
	sh.Flush()
	// ...then the shadowed histogram matches byte-for-byte.
	d, s := direct.Snapshot(), shadowed.Snapshot()
	if d.Count != s.Count || d.Sum != s.Sum {
		t.Fatalf("count/sum mismatch: direct %d/%d shadow %d/%d", d.Count, d.Sum, s.Count, s.Sum)
	}
	for i := range d.Buckets {
		if d.Buckets[i] != s.Buckets[i] {
			t.Fatalf("bucket %d: direct %+v shadow %+v", i, d.Buckets[i], s.Buckets[i])
		}
	}
	sh.Flush() // idempotent once drained
	if shadowed.Count() != direct.Count() {
		t.Fatalf("second Flush changed count: %d", shadowed.Count())
	}
}

func TestHistShadowNil(t *testing.T) {
	if NewHistShadow(nil) != nil {
		t.Fatal("NewHistShadow(nil) should return nil")
	}
	var sh *HistShadow
	sh.Observe(3) // must not panic
	sh.Flush()
}
