package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// metricDef names one metric and its unit. The lists below are what the
// program emits; BENCHMARK.json repeats them with direction and bound,
// and bench_test.go holds the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the simulator sees: host speed,
// host cost, and the simulated statistics a speed-up must not move.
var endToEnd = []metricDef{
	{"cells_per_sec", "cells/s"},
	{"step_latency_p50_ms", "ms"},
	{"setup_s", "s"},
	{"heap_peak_mb", "MiB"},
	{"sim_util", "fraction"},
	{"sim_cut_latency_mean_cycles", "cycles"},
	{"sim_cut_latency_p99_cycles", "cycles"},
	{"sim_accepted_frac", "fraction"},
	{"ops_ok_frac", "fraction"},
}

// perLayer are the single-layer metrics of the traced pass, prefixed by
// the module they measure.
var perLayer = []metricDef{
	{"traffic.heads_ns_per_cycle", "ns/cycle"},
	{"traffic.arrivals_per_cycle", "cells/cycle"},

	{"cell.pool_ns_per_cell", "ns/cell"},
	{"cell.pool_calls", "count"},

	{"core.tick_ns_per_cycle", "ns/cycle"},
	{"core.tick_ns_per_cell", "ns/cell"},
	{"core.drain_ns_per_cycle", "ns/cycle"},
	{"core.tickn_ns_per_cycle", "ns/cycle"},
	{"core.runner_step_ns_per_cycle", "ns/cycle"},
	{"core.runner_self_ns_per_cycle", "ns/cycle"},
	{"core.dead_cycle_frac", "fraction"},
	{"core.allocs_per_kcycle", "allocs/kcycle"},
	{"core.input_stall_cycles", "cycles"},
	{"core.mean_buffered", "cells"},
	{"core.max_buffered", "cells"},
	{"core.init_delay_mean_cycles", "cycles"},
	{"core.arb_share", "fraction"},
	{"core.arb_read_scans_per_call", "scans/call"},
	{"core.arb_write_scans_per_call", "scans/call"},

	{"bufmgr.drop_policy_cells", "cells"},
	{"bufmgr.drop_pushout_cells", "cells"},
	{"bufmgr.admit_ratio", "fraction"},

	{"ckpt.stepn_ns_per_cycle", "ns/cycle"},
	{"ckpt.stepn_added_ns_per_cycle", "ns/cycle"},
	{"ckpt.checkpoint_ms", "ms"},
	{"ckpt.checkpoint_bytes", "bytes"},
	{"ckpt.save_ms", "ms"},
	{"ckpt.load_resume_ms", "ms"},

	{"obs.observer_added_ns_per_cycle", "ns/cycle"},
	{"obs.scrape_ms", "ms"},
	{"obs.scrape_bytes", "bytes"},

	{"srv.step_ns_per_cycle", "ns/cycle"},
	{"srv.step_added_ns_per_cycle", "ns/cycle"},
	{"srv.step_call_overhead_us", "us"},
	{"srv.create_ms", "ms"},
	{"srv.fork_ms", "ms"},
	{"srv.allocs_per_request", "allocs/req"},

	{"srv.http.added_us_per_request", "us"},
	{"srv.http.step_latency_p99_ms", "ms"},
	{"srv.http.step_latency_max_ms", "ms"},
	{"srv.http.requests", "count"},
	{"srv.http.failed", "count"},

	{"engine.inject_ns_per_cell", "ns/cell"},
	{"engine.step_ns_per_cycle", "ns/cycle"},
	{"engine.node_step_share", "fraction"},
	{"engine.merge_share", "fraction"},
	{"engine.inject_share", "fraction"},
	{"engine.arb_share_of_node_step", "fraction"},
	{"engine.node_cells_per_sec", "cells/s"},
	{"engine.allocs_per_kcycle", "allocs/kcycle"},
	{"engine.in_flight_mean", "cells"},
	{"engine.interior_drops", "cells"},
	{"engine.workers2_speedup", "x"},

	{"bench.window_median_ns", "ns"},
	{"bench.window_p95_ns", "ns"},
	{"bench.window_spread_frac", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"trace.timer_cost_ns", "ns"},
}

// value is one measured number as the contract's result line carries it.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is one run of one workload: what the contract's last line
// carries, plus what a reader needs to discount or reproduce the run.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	// Traced is true when Metrics holds the per-layer set.
	Traced bool `json:"traced"`

	Correct   bool  `json:"correct"`
	Attempted int64 `json:"ops_attempted"`
	Failed    int64 `json:"ops_failed"`
	// Failures says why Correct is false or Failed is nonzero.
	Failures []string `json:"failures,omitempty"`

	Metrics map[string]value `json:"metrics"`
	// NA lists metrics that do not apply to this workload (or could not
	// be measured on this host); the result line carries them as 0.
	NA []string `json:"na,omitempty"`
	// Samples are the sample counts behind the quantile metrics.
	Samples map[string]int64 `json:"samples,omitempty"`
	// Rungs is the layer ladder of a traced serve run, bottom rung first.
	Rungs []rungResult `json:"rungs,omitempty"`
	// WallS is the wall time of the whole run, set-up included.
	WallS float64 `json:"wall_s"`
}

func newResult(workload string, o opts, traced bool) *result {
	return &result{
		Workload: workload, Seed: o.seed, Seconds: o.seconds, Traced: traced,
		Correct: true, Metrics: map[string]value{}, Samples: map[string]int64{},
	}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.Correct = false
	r.Failures = append(r.Failures, fmt.Sprintf(format, args...))
}

// set stores metric name, taking the unit from defs.
func (r *result) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = value{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("benchmark: metric " + name + " is not declared in metrics.go")
}

func (r *result) e2e(name string, v float64)   { r.set(endToEnd, name, v) }
func (r *result) layer(name string, v float64) { r.set(perLayer, name, v) }

// fill gives every metric of defs that the run did not set the value 0
// and lists it under NA, so the result line names every metric.
func (r *result) fill(defs []metricDef) {
	for _, d := range defs {
		if _, ok := r.Metrics[d.Name]; !ok {
			r.Metrics[d.Name] = value{Unit: d.Unit}
			r.NA = append(r.NA, d.Name)
		}
	}
	sort.Strings(r.NA)
}

func (r *result) isNA(name string) bool {
	i := sort.SearchStrings(r.NA, name)
	return i < len(r.NA) && r.NA[i] == name
}

// merge folds the traced run's metrics into an untraced result, for the
// ledger mode that makes both passes.
func (r *result) merge(t *result) {
	for k, v := range t.Metrics {
		r.Metrics[k] = v
	}
	for k, v := range t.Samples {
		r.Samples[k] = v
	}
	r.NA = append(r.NA, t.NA...)
	sort.Strings(r.NA)
	r.Rungs = t.Rungs
	r.Failures = append(r.Failures, t.Failures...)
	r.Correct = r.Correct && t.Correct
	r.Attempted += t.Attempted
	r.Failed += t.Failed
	r.WallS += t.WallS
}

// contractLine renders the last line of standard output.
func (r *result) contractLine() string {
	b, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, r.Metrics})
	if err != nil {
		panic(err) // runOne has replaced every non-finite value
	}
	return string(b)
}

// specFile mirrors BENCHMARK.json.
type specFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadSpec(path string) (*specFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s specFile
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// exact reports whether a metric is a simulated statistic or a failure
// share: those repeat bit for bit at a fixed seed, so two versions of the
// program compare exactly and not against a noise bound.
func exact(name string) bool {
	return strings.HasPrefix(name, "sim_") || name == "ops_ok_frac"
}
