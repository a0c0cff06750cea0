package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// loadRuns reads the runs of a result file.
func loadRuns(path string) ([]*result, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var l ledger
	if err := json.Unmarshal(data, &l); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(l.Runs) == 0 {
		return nil, fmt.Errorf("%s holds no runs", path)
	}
	for _, r := range l.Runs {
		sort.Strings(r.NA)
	}
	return l.Runs, nil
}

// quartiles are the cut points of Python's statistics.quantiles(v, n=4),
// the figures the guide's spread rule is stated in.
func quartiles(v []float64) (q1, med, q3 float64) {
	x := append([]float64(nil), v...)
	sort.Float64s(x)
	m := len(x)
	if m == 1 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := float64(i*(m+1) - j*4)
		return (x[j-1]*(4-delta) + x[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// sample is one side's value of a metric in one pair.
type sample struct {
	v    float64
	seed uint64
}

// verdict applies guide §8 to the paired samples of one metric on one
// workload: improved, unchanged, regressed or unresolved against bound.
func verdict(m specMetric, olds, news []sample) (string, string) {
	higher := m.Better == "higher"
	better := func(a, b float64) bool { // a reads better than b
		if higher {
			return a > b
		}
		return a < b
	}
	ov, nv := make([]float64, len(olds)), make([]float64, len(news))
	for i := range olds {
		ov[i], nv[i] = olds[i].v, news[i].v
	}
	oq1, omed, oq3 := quartiles(ov)
	nq1, nmed, nq3 := quartiles(nv)
	detail := fmt.Sprintf("old %.6g [%.6g, %.6g]  new %.6g [%.6g, %.6g]  new/old %.4f of %.6g %s  n=%d",
		omed, oq1, oq3, nmed, nq1, nq3, nmed/omed, omed, m.Unit, len(olds))

	if exact(m.Name) {
		same, comparable := true, true
		for i := range olds {
			if olds[i].seed != news[i].seed {
				comparable = false
			} else if math.Float64bits(olds[i].v) != math.Float64bits(news[i].v) {
				same = false
			}
		}
		switch {
		case !comparable: // different inputs: fall through to the bound
		case same:
			return "unchanged", detail + "  exact"
		case better(nmed, omed):
			return "improved", detail + "  exact: differs"
		default:
			return "regressed", detail + "  exact: differs"
		}
	}

	wins, allBetter := 0, true
	for i := range ov {
		if better(nv[i], ov[i]) {
			wins++ // a tie counts for neither side
		}
	}
	for _, n := range nv {
		for _, o := range ov {
			if !better(n, o) {
				allBetter = false
			}
		}
	}
	detail += fmt.Sprintf("  wins %d/%d", wins, len(ov))
	spread := (oq3 - oq1) / math.Abs(omed)
	worse := better(omed, nmed) && math.Abs(nmed-omed) > m.Bound*math.Abs(omed)
	gain := better(nmed, omed) && float64(wins) >= 0.9*float64(len(ov)) && math.Abs(nmed-omed) > oq3-oq1
	switch {
	case worse && spread <= m.Bound:
		return "regressed", detail
	case worse:
		return "unresolved", detail + fmt.Sprintf("  (worse, but the old side's spread %.3f exceeds the bound %.3f)", spread, m.Bound)
	case gain && len(ov) >= 10:
		return "improved", detail
	case gain && math.Abs(nmed-omed) > m.Bound*math.Abs(omed):
		return "unresolved", detail + "  (better, but a gain needs ten pairs)"
	case spread > m.Bound && !allBetter:
		return "unresolved", detail + fmt.Sprintf("  (old side's spread %.3f exceeds the bound %.3f)", spread, m.Bound)
	default:
		return "unchanged", detail
	}
}

// compareFiles pairs OLD NEW [OLD NEW...] result files and prints, for
// each metric × workload, both sides' medians and quartiles, the ratio
// with its base, and the verdict. It exits 1 if anything regressed.
func compareFiles(spec *specFile, files []string, stdout, stderr io.Writer) int {
	if len(files) < 2 || len(files)%2 != 0 {
		fmt.Fprintln(stderr, "benchmark: -compare takes OLD NEW [OLD NEW...] result files, in pairs")
		return 2
	}
	type key struct{ workload, metric string }
	olds, news := map[key][]sample{}, map[key][]sample{}
	for i := 0; i < len(files); i += 2 {
		o, err := loadRuns(files[i])
		if err == nil {
			var n []*result
			if n, err = loadRuns(files[i+1]); err == nil {
				err = pairRuns(o, n, func(w, m string, ov, nv sample) {
					k := key{w, m}
					olds[k], news[k] = append(olds[k], ov), append(news[k], nv)
				})
			}
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 2
		}
	}
	code := 0
	for _, w := range spec.Workloads {
		fmt.Fprintf(stdout, "%s\n", w.Name)
		for _, m := range spec.EndToEnd {
			k := key{w.Name, m.Name}
			if len(olds[k]) == 0 {
				fmt.Fprintf(stdout, "  %-30s n/a\n", m.Name)
				continue
			}
			v, detail := verdict(m, olds[k], news[k])
			if v == "regressed" {
				code = 1
			}
			fmt.Fprintf(stdout, "  %-30s %-10s %s\n", m.Name, v, detail)
		}
		for _, m := range spec.PerLayer {
			k := key{w.Name, m.Name}
			if len(olds[k]) == 0 {
				continue
			}
			ov, nv := make([]float64, len(olds[k])), make([]float64, len(olds[k]))
			for i := range ov {
				ov[i], nv[i] = olds[k][i].v, news[k][i].v
			}
			_, omed, _ := quartiles(ov)
			_, nmed, _ := quartiles(nv)
			fmt.Fprintf(stdout, "  %-36s old %.6g  new %.6g %s  n=%d\n", m.Name, omed, nmed, m.Unit, len(ov))
		}
	}
	return code
}

// pairRuns calls f for every metric two result files both measured on
// the same workload and pass.
func pairRuns(olds, news []*result, f func(workload, metric string, o, n sample)) error {
	paired := false
	for _, o := range olds {
		for _, n := range news {
			if o.Workload != n.Workload || o.Traced != n.Traced {
				continue
			}
			if o.Seconds != n.Seconds {
				return fmt.Errorf("%s was run for %d s on one side and %d s on the other: run length is the benchmark's, the same on both", o.Workload, o.Seconds, n.Seconds)
			}
			paired = true
			for name, ov := range o.Metrics {
				nv, ok := n.Metrics[name]
				if ok && !o.isNA(name) && !n.isNA(name) {
					f(o.Workload, name, sample{ov.Value, o.Seed}, sample{nv.Value, n.Seed})
				}
			}
		}
	}
	if !paired {
		return fmt.Errorf("the two files share no workload and pass")
	}
	return nil
}

// selfCheck runs the whole set twice and fails if the two disagree:
// timing metrics by more than their bound, exact ones at all. Each set is
// a fresh process of this program, because the Go heap's floor and the
// collector's pacing carry over from one workload to the next: only runs
// with the same history compare.
func selfCheck(spec *specFile, specPath string, o opts, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	var sets [2][]*result
	for i := range sets {
		fmt.Fprintf(stdout, "set %d\n", i+1)
		dir := filepath.Join(o.outDir, fmt.Sprintf("selfcheck-%d", i+1))
		cmd := exec.Command(self, "-spec", specPath, "-out", dir,
			"-seed", fmt.Sprint(o.seed), "-seconds", fmt.Sprint(o.seconds))
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintln(stderr, "benchmark: set", i+1, "failed:", err)
			return 1
		}
		if sets[i], err = loadRuns(filepath.Join(dir, "ledger.json")); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	bounds := map[string]float64{}
	for _, m := range spec.EndToEnd {
		bounds[m.Name] = m.Bound
	}
	code := 0
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, d := range endToEnd {
			va, vb := a.Metrics[d.Name].Value, b.Metrics[d.Name].Value
			diff := math.Abs(va-vb) / math.Abs(va)
			ok := diff <= bounds[d.Name]
			if exact(d.Name) {
				ok = math.Float64bits(va) == math.Float64bits(vb)
			}
			mark := "ok"
			if !ok {
				mark, code = "DIFFERS", 1
			}
			fmt.Fprintf(stdout, "%-16s %-30s %14.6g %14.6g %s  differ by %.4f of %.6g, bound %.3f  %s\n",
				a.Workload, d.Name, va, vb, d.Unit, diff, va, bounds[d.Name], mark)
		}
	}
	return code
}
