package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"pipemem/internal/core"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the tracer's epoch; Parent is 0 for a root.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	// Self is the duration minus the part the direct children cover,
	// filled in when the file is written.
	Self int64 `json:"self_ns"`
}

// maxSampledCycles caps the driver.cycle spans a pass records, so a span
// file stays a few megabytes whatever -seconds is.
const maxSampledCycles = 4096

// sampleEvery is the cycle stride between recorded driver.cycle spans.
const sampleEvery = 1024

// tracer holds the spans of one traced run in memory. Spans are recorded
// from the benchmark's own files, around its calls into each layer.
type tracer struct {
	epoch time.Time
	// mu orders the two clients of a serve workload; the single-driver
	// loops take it uncontended, on sampled cycles only.
	mu    sync.Mutex
	spans []span
	// timerNS is core.TimerCostNS, the cost of one clock read in a tight
	// loop; recorded child spans end that much early. Busy totals subtract
	// the cost measured in place instead (see clockCost).
	timerNS int64
	sampled int
}

func newTracer() *tracer {
	// One calibration is as exposed to the host's disturbances as any
	// other millisecond of the run, so take the quietest of several.
	cost := core.TimerCostNS()
	for i := 0; i < 15; i++ {
		if c := core.TimerCostNS(); c < cost {
			cost = c
		}
	}
	return &tracer{
		epoch:   time.Now(),
		spans:   make([]span, 0, 8*maxSampledCycles),
		timerNS: int64(cost + 0.5),
	}
}

// now reads the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// add records a finished span and returns its id.
func (t *tracer) add(name string, parent, start, end int64) int64 {
	if end < start {
		end = start
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int64(len(t.spans) + 1)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: start, End: end})
	return id
}

// open records a span whose end is not known yet; close sets it.
func (t *tracer) open(name string, parent int64) int64 {
	return t.add(name, parent, t.now(), 0)
}

func (t *tracer) close(id int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = t.now()
}

// window runs f under a "window" span below root; the span is dropped
// again if f recorded nothing inside it. Single driver only.
func (t *tracer) window(root int64, f func(id int64)) {
	id := t.open("window", root)
	f(id)
	if int(id) == len(t.spans) {
		t.spans = t.spans[:id-1]
		return
	}
	t.close(id)
}

// child records a span between two clock reads already taken, ending one
// timer cost early so that the read that closed it is not charged to it.
func (t *tracer) child(name string, parent, start, end int64) {
	t.add(name, parent, start, end-t.timerNS)
}

// selfTimes sets every span's Self to its duration minus the part of it
// that its direct children cover; children of two concurrent clients may
// overlap, so the cover is the union of their intervals.
func (t *tracer) selfTimes() {
	kids := make(map[int64][]*span)
	for i := range t.spans {
		s := &t.spans[i]
		s.Self = s.End - s.Start
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	for parent, ks := range kids {
		sort.Slice(ks, func(i, j int) bool { return ks[i].Start < ks[j].Start })
		covered, edge := int64(0), ks[0].Start
		for _, k := range ks {
			if k.End > edge {
				if k.Start > edge {
					edge = k.Start
				}
				covered += k.End - edge
				edge = k.End
			}
		}
		t.spans[parent-1].Self -= covered
	}
}

// write computes self times and writes the run's span file, one JSON span
// per line.
func (t *tracer) write(o opts, r *result) error {
	t.selfTimes()
	r.Samples["trace.spans"] = int64(len(t.spans))
	path := filepath.Join(o.outDir, r.Workload+".trace.jsonl")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// clockCost is what one clock read cost the traced loop: the quietest
// traced window's excess over the same cycles untraced, per read made in
// it. A read between two short calls overlaps with them, so this is the
// figure that makes the layers' busy times add up to the untraced cycle
// (22–46 ns by workload; core.TimerCostNS, measured back to back, is one
// number for all of them).
func clockCost(tracedNS, untracedNS float64, reads int64) float64 {
	if c := (tracedNS - untracedNS) / float64(reads); c > 0 {
		return c
	}
	return 0
}

// layerAcc accumulates one layer's calls and busy time over a window.
type layerAcc struct {
	calls, ns int64
}

// busy is the accumulated time with one clock read subtracted per call.
func (a layerAcc) busy(clockNS float64) float64 {
	b := float64(a.ns) - float64(a.calls)*clockNS
	if b < 0 {
		return 0
	}
	return b
}
