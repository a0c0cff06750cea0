// Package stats provides the measurement primitives the simulators in this
// repository share: streaming mean/variance trackers, integer histograms
// and batch-mean confidence intervals.
//
// All types have useful zero values and are not safe for concurrent use;
// every simulator owns its own instances.
package stats

import (
	"fmt"
	"math"
)

// Mean accumulates a streaming mean and variance using Welford's method,
// which is numerically stable for the long runs (10⁷–10⁸ samples) the loss
// experiments need.
type Mean struct {
	n    int64
	mean float64
	m2   float64
}

// Add records one sample.
func (m *Mean) Add(x float64) {
	m.n++
	d := x - m.mean
	m.mean += d / float64(m.n)
	m.m2 += d * (x - m.mean)
}

// N returns the number of samples recorded.
func (m *Mean) N() int64 { return m.n }

// Mean returns the sample mean, or 0 if no samples were recorded.
func (m *Mean) Mean() float64 { return m.mean }

// Var returns the unbiased sample variance, or 0 for fewer than 2 samples.
func (m *Mean) Var() float64 {
	if m.n < 2 {
		return 0
	}
	return m.m2 / float64(m.n-1)
}

// StdDev returns the sample standard deviation.
func (m *Mean) StdDev() float64 { return math.Sqrt(m.Var()) }

// Merge folds another accumulator into m (parallel-run reduction).
func (m *Mean) Merge(o *Mean) {
	if o.n == 0 {
		return
	}
	if m.n == 0 {
		*m = *o
		return
	}
	n := m.n + o.n
	d := o.mean - m.mean
	m.m2 += o.m2 + d*d*float64(m.n)*float64(o.n)/float64(n)
	m.mean += d * float64(o.n) / float64(n)
	m.n = n
}

// Hist is a fixed-width integer histogram with an overflow bucket, used for
// latency and occupancy distributions.
//
// Buckets are allocated on demand: only up to the largest sample seen (at
// least minBuckets, doubling, capped at the limit), so a histogram that
// records nothing, or only short latencies, holds no more than it uses.
// Every accessor reads an unallocated bucket as zero.
type Hist struct {
	buckets  []int64
	limit    int
	overflow int64
	total    int64
	sum      float64
	max      int64
}

// minBuckets is the first allocation of a histogram's buckets.
const minBuckets = 64

// NewHist returns a histogram that resolves values 0..n-1 individually and
// counts everything ≥ n in a single overflow bucket.
func NewHist(n int) *Hist {
	return &Hist{limit: n}
}

// Add records one non-negative integer sample. The common case is one
// bounds test; a sample past the allocated buckets takes addBeyond.
func (h *Hist) Add(v int64) {
	if uint64(v) < uint64(len(h.buckets)) {
		h.buckets[v]++
	} else {
		h.addBeyond(v)
	}
	h.total++
	h.sum += float64(v)
	h.max = max(h.max, v)
}

// addBeyond counts a sample past the allocated buckets: into the overflow
// bucket at or past the limit, else into buckets grown to hold it.
func (h *Hist) addBeyond(v int64) {
	if v < 0 {
		panic(fmt.Sprintf("stats: negative histogram sample %d", v))
	}
	if v >= int64(h.limit) {
		h.overflow++
		return
	}
	h.grow(int(v))
	h.buckets[v]++
}

// grow extends the buckets to resolve value v (< limit): the first size of
// minBuckets·2^j, capped at the limit, that holds it.
func (h *Hist) grow(v int) {
	n := max(len(h.buckets), minBuckets)
	for n <= v {
		n *= 2
	}
	nb := make([]int64, min(n, h.limit))
	copy(nb, h.buckets)
	h.buckets = nb
}

// N returns the total sample count.
func (h *Hist) N() int64 { return h.total }

// Overflow returns the number of samples ≥ Limit that fell into the
// overflow bucket: their exact values are not resolved (Count and
// Quantile see them only as "at the overflow boundary"), though Mean and
// Max still account for their true magnitudes. Reports should surface a
// nonzero overflow count rather than silently quoting truncated
// distribution statistics.
func (h *Hist) Overflow() int64 { return h.overflow }

// Limit returns the first unresolved value: samples in 0..Limit-1 are
// counted individually, samples ≥ Limit land in the overflow bucket.
func (h *Hist) Limit() int { return h.limit }

// Mean returns the mean of all samples (including overflowed values, which
// contribute their true magnitude to the mean).
func (h *Hist) Mean() float64 {
	if h.total == 0 {
		return 0
	}
	return h.sum / float64(h.total)
}

// Max returns the largest sample seen.
func (h *Hist) Max() int64 { return h.max }

// Count returns the number of samples equal to v, or the overflow count if
// v is beyond the resolved range.
func (h *Hist) Count(v int64) int64 {
	if int(v) < len(h.buckets) {
		return h.buckets[v]
	}
	if int(v) < h.limit {
		return 0
	}
	return h.overflow
}

// Quantile returns the smallest resolved value x such that at least q of
// the samples are ≤ x. Overflowed samples count as the overflow boundary:
// when the requested quantile falls among them the result saturates at
// Limit, an underestimate of the true quantile. Callers should check
// Overflow before trusting upper quantiles.
func (h *Hist) Quantile(q float64) int64 {
	if h.total == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.total)))
	if target < 1 {
		target = 1
	}
	var cum int64
	for v, c := range h.buckets {
		cum += c
		if cum >= target {
			return int64(v)
		}
	}
	return int64(h.limit)
}

// BatchMeans implements the method of batch means: samples are grouped into
// fixed-size batches and a confidence interval is computed over batch
// averages, sidestepping the autocorrelation of queueing processes.
type BatchMeans struct {
	batchSize int64
	cur       Mean
	batches   Mean
}

// NewBatchMeans returns an estimator with the given batch size.
func NewBatchMeans(batchSize int64) *BatchMeans {
	if batchSize < 1 {
		panic("stats: batch size must be ≥ 1")
	}
	return &BatchMeans{batchSize: batchSize}
}

// Add records a sample, closing a batch when it fills.
func (b *BatchMeans) Add(x float64) {
	b.cur.Add(x)
	if b.cur.N() == b.batchSize {
		b.batches.Add(b.cur.Mean())
		b.cur = Mean{}
	}
}

// Batches returns the number of completed batches.
func (b *BatchMeans) Batches() int64 { return b.batches.N() }

// Mean returns the grand mean over completed batches.
func (b *BatchMeans) Mean() float64 { return b.batches.Mean() }

// HalfWidth95 returns the half-width of a ~95% confidence interval over
// batch means (normal approximation, 1.96·s/√k). It returns +Inf for fewer
// than 2 batches.
func (b *BatchMeans) HalfWidth95() float64 {
	k := b.batches.N()
	if k < 2 {
		return math.Inf(1)
	}
	return 1.96 * b.batches.StdDev() / math.Sqrt(float64(k))
}

// MeanState is the exported state of a Mean accumulator, used by the
// checkpoint layer: restoring it reproduces the accumulator bit for bit
// (Welford's recurrence is deterministic given these three values).
type MeanState struct {
	N    int64
	Mean float64
	M2   float64
}

// State exports the accumulator for checkpointing.
func (m *Mean) State() MeanState { return MeanState{N: m.n, Mean: m.mean, M2: m.m2} }

// RestoreState overwrites the accumulator with a previously exported
// state.
func (m *Mean) RestoreState(st MeanState) { m.n, m.mean, m.m2 = st.N, st.Mean, st.M2 }

// HistState is the exported state of a Hist, used by the checkpoint
// layer. Buckets is the full resolved range (len == Limit).
type HistState struct {
	Buckets  []int64
	Overflow int64
	Total    int64
	Sum      float64
	Max      int64
}

// State exports the histogram for checkpointing. The bucket slice is a
// copy of the full resolved range, unallocated buckets as zeros; mutating
// it does not affect the histogram.
func (h *Hist) State() HistState {
	buckets := make([]int64, h.limit)
	copy(buckets, h.buckets)
	return HistState{
		Buckets:  buckets,
		Overflow: h.overflow,
		Total:    h.total,
		Sum:      h.sum,
		Max:      h.max,
	}
}

// RestoreState overwrites the histogram with a previously exported state.
// The resolved range must match (a histogram restores only into a peer of
// the same Limit), and the state must be one some run of Add produces: no
// negative count, Total the sum of the buckets and the overflow, Max at
// least the largest value they hold. Trailing zero buckets are not
// allocated.
func (h *Hist) RestoreState(st HistState) error {
	if len(st.Buckets) != h.limit {
		return fmt.Errorf("stats: histogram state has %d buckets, this histogram resolves %d", len(st.Buckets), h.limit)
	}
	if st.Overflow < 0 {
		return fmt.Errorf("stats: histogram state Overflow %d is negative", st.Overflow)
	}
	total, last := st.Overflow, -1 // last: the largest value with a count
	for v, c := range st.Buckets {
		if c < 0 {
			return fmt.Errorf("stats: histogram state Buckets[%d] %d is negative", v, c)
		}
		if c > 0 {
			total, last = total+c, v
		}
		if total < 0 {
			return fmt.Errorf("stats: histogram state counts overflow int64 at Buckets[%d]", v)
		}
	}
	if st.Total != total {
		return fmt.Errorf("stats: histogram state Total %d, but its buckets and overflow hold %d", st.Total, total)
	}
	if !(st.Sum >= 0) {
		return fmt.Errorf("stats: histogram state Sum %v is not a sum of non-negative samples", st.Sum)
	}
	held := int64(max(last, 0))
	if st.Overflow > 0 {
		held = int64(h.limit)
	}
	if st.Max < held {
		return fmt.Errorf("stats: histogram state Max %d is below the value %d it holds", st.Max, held)
	}
	h.buckets = nil
	if last >= 0 {
		h.grow(last)
	}
	copy(h.buckets, st.Buckets)
	h.overflow, h.total, h.sum, h.max = st.Overflow, st.Total, st.Sum, st.Max
	return nil
}
