package obs

import "fmt"

// Histogram is a fixed-bucket integer histogram safe for one writer and
// any number of concurrent readers (all fields are atomics). Observe is
// allocation-free: the bucket vector is sized at construction and found
// by a linear scan, which beats binary search at the bucket counts the
// simulators use (≤ ~20).
//
// The total count is not stored separately: it is the sum of the bucket
// counters, computed by readers. That keeps Observe at two atomic adds
// (bucket + sum) — the hot path is a simulator cycle, the snapshot a
// scrape — and makes the count/bucket relation exact by construction:
// a snapshot can never show a counted sample missing from every bucket.
type Histogram struct {
	bounds  []int64   // inclusive upper bounds, strictly increasing
	buckets []Counter // len(bounds)+1; last is the +Inf bucket
	sum     Counter
}

// NewHistogram builds a histogram over the given inclusive upper bucket
// bounds (strictly increasing; an implicit +Inf bucket is appended).
// Prefer Registry.Histogram, which also registers the result.
func NewHistogram(bounds []int64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("obs: histogram bounds not increasing at %d (%d ≤ %d)",
				i, bounds[i], bounds[i-1]))
		}
	}
	return &Histogram{
		bounds:  append([]int64(nil), bounds...),
		buckets: make([]Counter, len(bounds)+1),
	}
}

// ExpBounds returns n bucket bounds start, start·factor, start·factor², …
// — the geometric ladder latency histograms use.
func ExpBounds(start, factor int64, n int) []int64 {
	if start < 1 || factor < 2 || n < 1 {
		panic("obs: ExpBounds needs start ≥ 1, factor ≥ 2, n ≥ 1")
	}
	b := make([]int64, n)
	v := start
	for i := range b {
		b[i] = v
		v *= factor
	}
	return b
}

// Observe records one sample. Safe on a nil receiver (no-op).
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.buckets[h.bucket(v)].Inc()
	h.sum.Add(v)
}

// Count returns the total number of samples (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	var n int64
	for i := range h.buckets {
		n += h.buckets[i].Value()
	}
	return n
}

// Sum returns the sum of all samples (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Value()
}

// HistBucket is one cumulative bucket of a histogram snapshot.
type HistBucket struct {
	// Le is the bucket's inclusive upper bound; the +Inf bucket is
	// reported with Inf set instead.
	Le  int64 `json:"le"`
	Inf bool  `json:"inf,omitempty"`
	// N is the cumulative count of samples ≤ Le.
	N int64 `json:"n"`
}

// HistSnapshot is a point-in-time copy of a histogram. Count always
// equals the final cumulative bucket (the count is derived from the
// buckets, so the two can never disagree).
type HistSnapshot struct {
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Buckets []HistBucket `json:"buckets"`
}

// HistShadow accumulates observations for one histogram in plain
// (non-atomic) memory. It is for a single writer on a hot path: Observe
// costs a bucket lookup and two plain adds, and Flush publishes the
// accumulated counts into the histogram's atomic counters — readers see
// the histogram at flush granularity. All methods are nil-receiver safe.
type HistShadow struct {
	h   *Histogram
	cnt []int64
	sum int64
	n   int64
	// slot[v] is the bucket of sample v, for every v from 0 to the last
	// bound when that is at most maxSlots: the bucket scan done once, at
	// construction, instead of per sample.
	slot []uint8
}

// maxSlots bounds a shadow's slot table (bytes).
const maxSlots = 1 << 13

// NewHistShadow returns a shadow for h (nil when h is nil).
func NewHistShadow(h *Histogram) *HistShadow {
	if h == nil {
		return nil
	}
	s := &HistShadow{h: h, cnt: make([]int64, len(h.buckets))}
	if nb := len(h.bounds); nb > 0 && nb < 256 && h.bounds[0] >= 0 && h.bounds[nb-1] < maxSlots {
		s.slot = make([]uint8, h.bounds[nb-1]+1)
		for v := range s.slot {
			s.slot[v] = uint8(h.bucket(int64(v)))
		}
	}
	return s
}

// bucket is the index of the bucket sample v falls in.
func (h *Histogram) bucket(v int64) int {
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	return i
}

// Observe records one sample locally. Safe on a nil receiver (no-op).
func (s *HistShadow) Observe(v int64) {
	if s == nil {
		return
	}
	var i int
	if uint64(v) < uint64(len(s.slot)) {
		i = int(s.slot[v])
	} else {
		i = s.h.bucket(v)
	}
	s.cnt[i]++
	s.sum += v
	s.n++
}

// Flush publishes the accumulated samples into the histogram and resets
// the shadow. Safe on a nil receiver (no-op).
func (s *HistShadow) Flush() {
	if s == nil || s.n == 0 {
		return
	}
	for i, c := range s.cnt {
		if c > 0 {
			s.h.buckets[i].Add(c)
			s.cnt[i] = 0
		}
	}
	s.h.sum.Add(s.sum)
	s.sum, s.n = 0, 0
}

// Snapshot copies the histogram's current state with cumulative bucket
// counts. It allocates (one slice) and is meant for readers, not the
// simulation hot path.
func (h *Histogram) Snapshot() HistSnapshot {
	if h == nil {
		return HistSnapshot{}
	}
	s := HistSnapshot{
		Sum:     h.sum.Value(),
		Buckets: make([]HistBucket, len(h.buckets)),
	}
	var cum int64
	for i := range h.buckets {
		cum += h.buckets[i].Value()
		s.Buckets[i].N = cum
		if i < len(h.bounds) {
			s.Buckets[i].Le = h.bounds[i]
		} else {
			s.Buckets[i].Inf = true
		}
	}
	s.Count = cum
	return s
}
