package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// Estimator constants. The sandbox this was calibrated on is disturbed
// for most of every second (the median window runs at half the speed of
// the fastest), so windows are short enough for some to fall wholly
// between disturbances: README.md gives the calibration runs.
const (
	// windowsPerSecond × -seconds is the fixed number of windows of a
	// timed pass. A window is ~0.4 ms of undisturbed work, so a pass is
	// ~0.7 × -seconds on a quiet host and about -seconds on a busy one.
	windowsPerSecond = 1800
	// quietBlock is the run of consecutive steps whose median is one
	// candidate for the quiet-window p50 latency.
	quietBlock = 16
	// heapEvery is the number of windows between heap samples.
	heapEvery = 32
)

// opts are the knobs of one run.
type opts struct {
	seed    uint64
	seconds int
	// scale shrinks the fixed work (tests run at 1/100); 1 in real runs.
	scale float64
	// setups is the number of set-up rounds a timed pass is cut into.
	setups int
	outDir string
}

// windows is the window count of a timed pass that gets share of the
// run: a whole number of windows per set-up round.
func (o opts) windows(share float64) int {
	n := int(float64(windowsPerSecond*o.seconds) * o.scale * share)
	if n < 2*quietBlock {
		n = 2 * quietBlock
	}
	return n - n%o.setups
}

// scaled shrinks a fixed warm-up or check size with the run's scale.
func (o opts) scaled(n int64) int64 {
	n = int64(float64(n) * o.scale)
	if n < 64 {
		n = 64
	}
	return n
}

// settle shrinks a settling phase of n windows with the run's scale.
func (o opts) settle(n int) int { return int(float64(n)*o.scale) + 1 }

// pass is the record of one timed pass: for each concurrent driver one
// duration per window, in run order, plus the heap the process held
// between windows.
type pass struct {
	durs     [][]int64 // ns; durs[i] is driver i's windows
	heapPeak uint64    // max HeapInuse, bytes
	mallocs  uint64    // heap objects allocated during the pass
}

// heapSampler tracks max HeapInuse across calls to sample.
type heapSampler struct {
	ms      runtime.MemStats
	peak    uint64
	malloc0 uint64
}

func (h *heapSampler) start() {
	runtime.GC()
	runtime.ReadMemStats(&h.ms)
	h.peak, h.malloc0 = h.ms.HeapInuse, h.ms.Mallocs
}

func (h *heapSampler) sample() {
	runtime.ReadMemStats(&h.ms)
	if h.ms.HeapInuse > h.peak {
		h.peak = h.ms.HeapInuse
	}
}

// timedPass runs every driver's window function n times, the drivers
// concurrently, timing each call. The first driver samples the heap
// between its windows, outside the timed region; after, if not nil, is
// also called there with the window's duration (single driver only).
func timedPass(n int, after func(ns int64), windows ...func()) pass {
	p := pass{durs: make([][]int64, len(windows))}
	var h heapSampler
	h.start()
	var wg sync.WaitGroup
	for i, window := range windows {
		wg.Add(1)
		go func(i int, window func()) {
			defer wg.Done()
			durs := make([]int64, n)
			for w := range durs {
				t0 := time.Now()
				window()
				durs[w] = int64(time.Since(t0))
				if after != nil {
					after(durs[w])
				}
				if i == 0 && w%heapEvery == heapEvery-1 {
					h.sample()
				}
			}
			p.durs[i] = durs
		}(i, window)
	}
	wg.Wait()
	h.sample()
	p.heapPeak, p.mallocs = h.peak, h.ms.Mallocs-h.malloc0
	return p
}

// add appends a later pass of the same drivers.
func (p *pass) add(q pass) {
	if p.durs == nil {
		p.durs = make([][]int64, len(q.durs))
	}
	for i, d := range q.durs {
		p.durs[i] = append(p.durs[i], d...)
	}
	if q.heapPeak > p.heapPeak {
		p.heapPeak = q.heapPeak
	}
	p.mallocs += q.mallocs
}

// setupTries is how many times a round sets up; it keeps the fastest.
const setupTries = 3

// rounds is a timed pass with the run's set-ups spread over it.
type rounds struct {
	nWin int
	// setup constructs the workload and gives it its short fixed warm-up
	// (pools filled, connections open), returning the time that took. The
	// instances of the call with keep set are the ones the windows drive;
	// the others are thrown away.
	setup func(keep bool) (float64, error)
	// windows returns the drivers' window functions, once the kept
	// instances exist.
	windows func() []func()
	// settle is the number of windows run untimed on the kept instances
	// to bring the simulation to steady state; settled is then called,
	// before the first window that counts.
	settle  int
	settled func()
}

// run makes o.setups rounds of set-up and an equal share of the windows,
// and returns the pass and the set-up time: the median over the rounds of
// each round's fastest set-up. Set-up takes milliseconds and cannot be cut
// into windows, so the host's noise is taken out the other way round: the
// fastest of a few tries (on the faster twin) is the try the host left
// alone, and the median over rounds spread seconds apart discards the
// rounds that fell in a slow phase. Five 50 ms set-ups made back to back
// moved 38% between two sets of ten runs.
func (rd rounds) run(o opts) (pass, float64, error) {
	var p pass
	var ws []func()
	took := make([]float64, o.setups)
	for round := range took {
		for try := 0; try < setupTries; try++ {
			t, err := rd.setup(round == 0 && try == setupTries-1)
			if err != nil {
				return p, 0, err
			}
			if try == 0 || t < took[round] {
				took[round] = t
			}
		}
		if round == 0 {
			ws = rd.windows()
			timedPass(rd.settle, nil, ws...)
			rd.settled()
		}
		p.add(timedPass(rd.nWin/o.setups, nil, ws...))
	}
	return p, medianF(took), nil
}

// windows is the number of windows each driver of the pass ran.
func (p pass) windows() int { return len(p.durs[0]) }

// fastest is the quietest window of any driver.
func (p pass) fastest() int64 {
	m := fastest(p.durs[0])
	for _, d := range p.durs[1:] {
		if f := fastest(d); f < m {
			m = f
		}
	}
	return m
}

// quietestP50 is quietP50 over every driver's steps.
func quietestP50(steps [][]int64) int64 {
	m := quietP50(steps[0])
	for _, s := range steps[1:] {
		if q := quietP50(s); q < m {
			m = q
		}
	}
	return m
}

// pooled is every driver's windows in one slice.
func pooled(durs [][]int64) []int64 {
	var all []int64
	for _, d := range durs {
		all = append(all, d...)
	}
	return all
}

// twins is the number of identical drivers a single-threaded workload
// runs at once. The calibration host slows one processor or the other by
// 1.6× for seconds at a time (README.md); with a driver on each, the
// quietest window of either is the undisturbed rate unless both are slow
// for the whole pass. The twins run the same seed, so they also check the
// simulator's determinism against each other.
const twins = 2

// onTwins runs f for every twin at once and returns the first error and
// the time the faster twin took: set-up is timed this way, so that a
// processor in its slow phase does not set the figure.
func onTwins(f func(k int) error) (float64, error) {
	var errs [twins]error
	var took [twins]time.Duration
	var wg sync.WaitGroup
	for k := range errs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			t0 := time.Now()
			errs[k] = f(k)
			took[k] = time.Since(t0)
		}(k)
	}
	wg.Wait()
	best := took[0]
	for k, err := range errs {
		if err != nil {
			return 0, err
		}
		if took[k] < best {
			best = took[k]
		}
	}
	return best.Seconds(), nil
}

// fastest is the duration of the quietest of one driver's windows: the
// estimator behind every host rate.
func fastest(durs []int64) int64 {
	m := durs[0]
	for _, d := range durs[1:] {
		if d < m {
			m = d
		}
	}
	return m
}

func sortedCopy(durs []int64) []int64 {
	s := append([]int64(nil), durs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile reads the q-quantile of sorted samples (nearest rank).
func quantile(sorted []int64, q float64) int64 {
	i := int(q * float64(len(sorted)))
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// quietP50 is the p50 step latency of the quietest block: the median of
// each run of quietBlock consecutive steps, minimised over the runs. A
// block's median ignores the disturbed minority of its steps, and the
// minimum picks the block the host disturbed least, so the figure is the
// typical step on an undisturbed host and not the fastest step. Every pass
// has at least 2×quietBlock steps (opts.windows).
func quietP50(steps []int64) int64 {
	best := int64(-1)
	buf := make([]int64, quietBlock)
	for i := 0; i+quietBlock <= len(steps); i += quietBlock {
		copy(buf, steps[i:i+quietBlock])
		sort.Slice(buf, func(a, b int) bool { return buf[a] < buf[b] })
		if m := buf[quietBlock/2]; best < 0 || m < best {
			best = m
		}
	}
	return best
}

// noise fills the bench.* layer metrics from a pass's windows.
func (r *result) noise(durs []int64) {
	s := sortedCopy(durs)
	med, p95 := quantile(s, 0.5), quantile(s, 0.95)
	r.layer("bench.window_median_ns", float64(med))
	r.layer("bench.window_p95_ns", float64(p95))
	r.layer("bench.window_spread_frac", float64(med-s[0])/float64(s[0]))
	r.Samples["bench.windows"] = int64(len(durs))
}

// medianF is the median of a few float samples (set-up times, probes).
func medianF(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[len(s)/2]
}

// repeatMS times f reps times and returns the median in milliseconds.
func repeatMS(reps int, f func() error) (float64, error) {
	ms := make([]float64, reps)
	for i := range ms {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		ms[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	return medianF(ms), nil
}

const mib = 1 << 20
