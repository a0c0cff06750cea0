// Package bench provides the parallel sweep engine for the pipelined
// memory switch models.
//
// Simulation sweeps (experiments, design-space exploration, pmsim -arch
// rtl -sweep) are embarrassingly parallel: every (configuration, seed,
// load) point builds its own switch and its own deterministically seeded
// traffic stream, so points share no mutable state and can run on as many
// cores as the host offers without perturbing each other's measured
// values. Map is the generic worker pool; Sweep instantiates it for
// RunTraffic points.
//
// Host performance is not measured here: `go run ./benchmark` is the
// repo's ledger (end-to-end and per-layer), `go test -bench` holds the
// allocation counts, and overhead_test.go gates the cost of the optional
// taps (make wallclock).
package bench

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Map applies fn to every item on a pool of workers and returns the
// results in input order. workers ≤ 0 uses GOMAXPROCS. fn receives the
// item's index alongside the item, so per-point seeding stays
// deterministic regardless of scheduling.
//
// All items are attempted even when some fail; the returned error is the
// one from the lowest-indexed failing item, wrapped with that index (the
// partial results slice is still returned, with zero values at failed
// indices).
func Map[T, R any](workers int, items []T, fn func(i int, item T) (R, error)) ([]R, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(items) {
		workers = len(items)
	}
	results := make([]R, len(items))
	errs := make([]error, len(items))
	if workers <= 1 {
		for i := range items {
			results[i], errs[i] = fn(i, items[i])
		}
		return results, firstErr(errs)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(items) {
					return
				}
				results[i], errs[i] = fn(i, items[i])
			}
		}()
	}
	wg.Wait()
	return results, firstErr(errs)
}

// firstErr returns the lowest-indexed error, wrapped with its index.
func firstErr(errs []error) error {
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("bench: point %d: %w", i, err)
		}
	}
	return nil
}
