package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// The contract's alphabets for names and units.
var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func testSpec(t *testing.T) *specFile {
	t.Helper()
	spec, err := loadSpec(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesProgram holds BENCHMARK.json and the program's metric
// and workload lists in step, and the names inside the contract's limits.
func TestSpecMatchesProgram(t *testing.T) {
	spec := testSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("spec names %d workloads, the program runs %d", len(spec.Workloads), len(workloads))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: spec %q, program %q", i, w.Name, workloads[i].name)
		}
		if !nameRE.MatchString(w.Name) {
			t.Errorf("workload name %q is outside the contract's alphabet", w.Name)
		}
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	check := func(kind string, in []specMetric, defs []metricDef, bounded bool) {
		if len(in) != len(defs) {
			t.Fatalf("%s: spec names %d metrics, the program emits %d", kind, len(in), len(defs))
		}
		for i, m := range in {
			if m.Name != defs[i].Name || m.Unit != defs[i].Unit {
				t.Errorf("%s metric %d: spec %s [%s], program %s [%s]", kind, i, m.Name, m.Unit, defs[i].Name, defs[i].Unit)
			}
			if !nameRE.MatchString(m.Name) || !unitRE.MatchString(m.Unit) {
				t.Errorf("%s metric %s [%s] is outside the contract's alphabet", kind, m.Name, m.Unit)
			}
			if m.Better != "higher" && m.Better != "lower" {
				t.Errorf("%s metric %s: better is %q", kind, m.Name, m.Better)
			}
			if bounded && (m.Bound <= 0 || m.Bound > 0.25) {
				t.Errorf("%s metric %s: bound %v is outside (0, 0.25]", kind, m.Name, m.Bound)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd, true)
	check("per_layer", spec.PerLayer, perLayer, false)
	if len(spec.Paths) != 1 || spec.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", spec.Paths)
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", spec.RunSeconds)
	}
}

func testOpts(t *testing.T, seed uint64) opts {
	return opts{seed: seed, seconds: 5, scale: 0.01, setups: 1, outDir: t.TempDir()}
}

// TestWorkloads runs each workload at 1/100 scale: the emitted names are
// the spec's, outputs check out, and the simulated statistics repeat
// exactly at one seed and move at another.
func TestWorkloads(t *testing.T) {
	runtime.GOMAXPROCS(2)
	spec := testSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			run := func(seed uint64) *result {
				r, err := runOne(w, testOpts(t, seed), false)
				if err != nil {
					t.Fatal(err)
				}
				if !r.Correct || r.Failed != 0 || r.Attempted < 1 {
					t.Fatalf("seed %d: correct=%v attempted=%d failed=%d: %v", seed, r.Correct, r.Attempted, r.Failed, r.Failures)
				}
				if len(r.NA) != 0 {
					t.Errorf("end-to-end metrics %v are n/a: each must be a number on every workload", r.NA)
				}
				if len(r.Metrics) != len(spec.EndToEnd) {
					t.Errorf("emitted %d end-to-end metrics, spec names %d", len(r.Metrics), len(spec.EndToEnd))
				}
				for _, m := range spec.EndToEnd {
					v, ok := r.Metrics[m.Name]
					if !ok || v.Unit != m.Unit {
						t.Errorf("metric %s: emitted %+v (present %v), spec unit %s", m.Name, v, ok, m.Unit)
					}
					if v.Value == 0 {
						t.Errorf("end-to-end metric %s is 0", m.Name)
					}
				}
				return r
			}
			a, b, c := run(42), run(42), run(7)
			moved := false
			for _, d := range endToEnd {
				if !exact(d.Name) {
					continue
				}
				if a.Metrics[d.Name] != b.Metrics[d.Name] {
					t.Errorf("%s differs between two runs at seed 42: %v, %v", d.Name, a.Metrics[d.Name].Value, b.Metrics[d.Name].Value)
				}
				if a.Metrics[d.Name] != c.Metrics[d.Name] {
					moved = true
				}
			}
			// Full-rate permutation traffic draws nothing from its seed.
			if !moved && !strings.HasPrefix(w.name, "serve-steady") {
				t.Errorf("no simulated statistic moved between seeds 42 and 7")
			}
			var line struct {
				Correct   bool
				Attempted int64
				Failed    int64
				Metrics   map[string]value
			}
			if err := json.Unmarshal([]byte(a.contractLine()), &line); err != nil || len(line.Metrics) != len(endToEnd) || !line.Correct {
				t.Errorf("result line %s: %v", a.contractLine(), err)
			}
		})
	}
}

// TestTraced runs each traced pass at 1/100 scale: every per-layer metric
// of the spec is emitted, and the span file is well formed.
func TestTraced(t *testing.T) {
	runtime.GOMAXPROCS(2)
	spec := testSpec(t)
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			o := testOpts(t, 42)
			r, err := runOne(w, o, true)
			if err != nil {
				t.Fatal(err)
			}
			if !r.Correct || r.Failed != 0 {
				t.Fatalf("correct=%v failed=%d: %v", r.Correct, r.Failed, r.Failures)
			}
			if len(r.Metrics) != len(spec.PerLayer) {
				t.Errorf("emitted %d per-layer metrics, spec names %d", len(r.Metrics), len(spec.PerLayer))
			}
			for _, m := range spec.PerLayer {
				if v, ok := r.Metrics[m.Name]; !ok || v.Unit != m.Unit {
					t.Errorf("metric %s: emitted %+v (present %v), spec unit %s", m.Name, v, ok, m.Unit)
				}
			}
			if r.isNA("trace.overhead_frac") {
				t.Error("trace.overhead_frac was not reported")
			}
			checkSpans(t, filepath.Join(o.outDir, w.name+".trace.jsonl"))
		})
	}
}

// checkSpans reads a span file back: every parent exists, children lie
// inside their parents, and self time is never negative.
func checkSpans(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	spans := map[int64]span{}
	var order []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v in %q", path, err, sc.Text())
		}
		if _, dup := spans[s.ID]; dup || s.ID == 0 {
			t.Fatalf("%s: span id %d is zero or repeated", path, s.ID)
		}
		spans[s.ID] = s
		order = append(order, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if len(order) < 3 {
		t.Fatalf("%s holds %d spans", path, len(order))
	}
	names := map[string]bool{}
	for _, s := range order {
		names[s.Name] = true
		if s.End < s.Start || s.Self < 0 || s.Self > s.End-s.Start {
			t.Errorf("span %d %s: start %d end %d self %d", s.ID, s.Name, s.Start, s.End, s.Self)
		}
		if s.Parent == 0 {
			continue
		}
		p, ok := spans[s.Parent]
		if !ok {
			t.Errorf("span %d %s: parent %d does not exist", s.ID, s.Name, s.Parent)
		} else if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %d %s [%d, %d] lies outside its parent %s [%d, %d]", s.ID, s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	if !names["workload"] || !names["window"] {
		t.Errorf("%s has no workload or window span: %v", path, names)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	q1, med, q3 := quartiles([]float64{46, 1, 2, 37, 4, 7, 29, 11, 16, 22})
	if q1 != 3.5 || med != 13.5 || q3 != 31 {
		t.Errorf("quartiles = %v, %v, %v, want 3.5, 13.5, 31", q1, med, q3)
	}
}

// TestVerdict pins guide §8: a gain needs ten pairs won nine times in ten
// and a median shift beyond the old side's spread; exact metrics compare
// bit for bit.
func TestVerdict(t *testing.T) {
	rate := specMetric{Name: "cells_per_sec", Unit: "cells/s", Better: "higher", Bound: 0.1}
	side := func(base, step float64, n int) []sample {
		s := make([]sample, n)
		for i := range s {
			s[i] = sample{v: base + step*float64(i), seed: uint64(i)}
		}
		return s
	}
	for _, tc := range []struct {
		name       string
		m          specMetric
		olds, news []sample
		want       string
	}{
		{"gain", rate, side(100, 0.1, 10), side(120, 0.1, 10), "improved"},
		{"gain with too few pairs", rate, side(100, 0.1, 4), side(120, 0.1, 4), "unresolved"},
		{"within bound", rate, side(100, 0.1, 10), side(97, 0.1, 10), "unchanged"},
		{"beyond bound", rate, side(100, 0.1, 10), side(80, 0.1, 10), "regressed"},
		{"beyond bound under a wide spread", rate, side(100, 5, 10), side(85, 5, 10), "unresolved"},
		{"exact and equal", specMetric{Name: "sim_util", Better: "higher", Bound: 0.01}, side(0.9, 0, 3), side(0.9, 0, 3), "unchanged"},
		{"exact and moved", specMetric{Name: "sim_util", Better: "higher", Bound: 0.01}, side(0.9, 0, 3), side(0.9001, 0, 3), "improved"},
	} {
		if got, detail := verdict(tc.m, tc.olds, tc.news); got != tc.want {
			t.Errorf("%s: verdict %s, want %s (%s)", tc.name, got, tc.want, detail)
		}
	}
}
