package bench

import (
	"fmt"

	"pipemem/internal/bufmgr"
	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

// Point is one simulation of a sweep: a switch configuration driven by a
// traffic pattern for a number of cycles. Each point owns its RNG (the
// traffic seed), so a sweep's measured values are independent of worker
// count and scheduling order.
type Point struct {
	// Label names the point in reports ("8x8 load=0.9 seed=3").
	Label string
	// Config is the switch configuration.
	Config core.Config
	// Traffic drives the switch for Cycles cycles (plus the drain tail).
	Traffic traffic.Config
	Cycles  int64
	// Policy optionally names a shared-buffer admission policy (a
	// bufmgr.Parse spec such as "dt:alpha=2"). Empty keeps the default
	// complete-sharing-by-backpressure behavior.
	Policy string
}

// Result pairs a point with its run summary.
type Result struct {
	Point Point
	Run   core.RunResult
}

// RunPoint simulates one point to completion.
func RunPoint(p Point) (Result, error) {
	s, err := core.New(p.Config)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", p.Label, err)
	}
	if p.Policy != "" {
		pol, err := bufmgr.Parse(p.Policy)
		if err != nil {
			return Result{}, fmt.Errorf("%s: %w", p.Label, err)
		}
		s.SetBufferPolicy(pol)
	}
	cs, err := traffic.NewCellStream(p.Traffic, s.Config().Stages)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", p.Label, err)
	}
	run, err := core.RunTraffic(s, cs, p.Cycles)
	if err != nil {
		return Result{}, fmt.Errorf("%s: %w", p.Label, err)
	}
	return Result{Point: p, Run: run}, nil
}

// Sweep simulates every point on a worker pool (workers ≤ 0 uses
// GOMAXPROCS) and returns results in point order.
func Sweep(workers int, pts []Point) ([]Result, error) {
	return Map(workers, pts, func(_ int, p Point) (Result, error) {
		return RunPoint(p)
	})
}
