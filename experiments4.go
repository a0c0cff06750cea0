package pipemem

import (
	"fmt"
	"slices"

	"pipemem/internal/bench"
	"pipemem/internal/bufmgr"
	"pipemem/internal/core"
	"pipemem/internal/traffic"
)

// X5 — shared-buffer management policies.
//
// The paper's switch shares one cell buffer among all outputs and relies
// on backpressure when it fills (§2.2 argues sharing needs the least
// memory for a given loss rate). Complete sharing, however, lets one
// congested output squat on the whole buffer and starve the rest —
// the classic failure mode that dynamic thresholds [Choudhury–Hahne]
// and push-out disciplines were invented to fix. X5 sweeps every
// admission policy across uniform, bursty and hotspot traffic at load
// 0.9 and checks the qualitative claims: under a hotspot, the dynamic
// threshold loses strictly fewer non-hot-port cells than both a static
// partition and complete sharing; under uniform traffic, sharing loses
// no more than partitioning; and LQF push-out lands its losses on the
// hog, not its victims.

// x5Traffics is the policy-evaluation traffic matrix.
func x5Traffics(n int) []struct {
	name string
	cfg  traffic.Config
} {
	return []struct {
		name string
		cfg  traffic.Config
	}{
		{"uniform", traffic.Config{Kind: traffic.Bernoulli, N: n, Load: 0.9, Seed: 4242}},
		{"bursty", traffic.Config{Kind: traffic.Bursty, N: n, Load: 0.9, BurstLen: 8, Seed: 4242}},
		{"hotspot", traffic.Config{Kind: traffic.Hotspot, N: n, Load: 0.9, HotFrac: 0.5, Seed: 4242}},
	}
}

// X5BufferPolicies runs the full policy × traffic sweep.
func X5BufferPolicies(s Scale) (ExpResult, error) {
	return bufferPolicyResult(s, "")
}

// BufferPolicyExperiment returns the X5 experiment restricted to one
// policy spec (the pmexp -bufpolicy path). The cross-policy comparison
// rows need the whole sweep, so a restricted run reports measurements
// only.
func BufferPolicyExperiment(spec string) Experiment {
	exps := Experiments()
	e := exps[slices.IndexFunc(exps, func(e Experiment) bool { return e.ID == "X5" })]
	e.run = func(s Scale) (ExpResult, error) { return bufferPolicyResult(s, spec) }
	return e
}

// coldPortLoss sums losses on every output other than the hotspot port.
func coldPortLoss(run core.RunResult, hot int) int64 {
	var sum int64
	for o, d := range run.OutputDrops {
		if o != hot {
			sum += d
		}
	}
	return sum
}

func bufferPolicyResult(s Scale, only string) (ExpResult, error) {
	var res ExpResult
	specs := bufmgr.Specs()
	if only != "" {
		if _, err := bufmgr.Parse(only); err != nil {
			return res, err
		}
		specs = []string{only}
		res.Notes = fmt.Sprintf("single policy %q: cross-policy comparison rows skipped", only)
	}
	const n, cells = 8, 32
	// Quick scale matches the tier-1 regression test; Full gives the
	// EXPERIMENTS.md loss ratios tighter confidence.
	cycles := s.slots(120_000, 600_000)
	trafs := x5Traffics(n)

	var pts []bench.Point
	for _, tr := range trafs {
		for _, spec := range specs {
			pts = append(pts, bench.Point{
				Label:   tr.name + "/" + spec,
				Config:  core.Config{Ports: n, WordBits: 16, Cells: cells, CutThrough: true},
				Traffic: tr.cfg,
				Cycles:  cycles,
				Policy:  spec,
			})
		}
	}
	runs, err := bench.Sweep(0, pts)
	if err != nil {
		return res, err
	}
	// byKey["hotspot/dt"] etc.; iteration order below keeps the table
	// grouped by traffic pattern.
	byKey := make(map[string]core.RunResult, len(runs))
	for _, r := range runs {
		byKey[r.Point.Label] = r.Run
	}
	for _, tr := range trafs {
		for _, spec := range specs {
			run := byKey[tr.name+"/"+spec]
			lossPct := 100 * float64(run.Dropped) / float64(run.Offered)
			measured := fmt.Sprintf("loss=%.3f%% util=%.3f", lossPct, run.Utilization)
			if tr.cfg.Kind == traffic.Hotspot {
				measured += fmt.Sprintf(" cold-loss=%d", coldPortLoss(run, tr.cfg.HotPort))
			}
			res.Rows = append(res.Rows, ExpRow{
				Label:    tr.name + " / " + spec,
				Paper:    "—",
				Measured: measured,
				OK:       true,
			})
		}
	}
	if only != "" {
		return res, nil
	}

	// The qualitative claims, as shape checks on the full sweep.
	hot := 0 // HotPort zero-value in x5Traffics
	dt := coldPortLoss(byKey["hotspot/dt"], hot)
	sp := coldPortLoss(byKey["hotspot/static"], hot)
	cs := coldPortLoss(byKey["hotspot/share"], hot)
	res.Rows = append(res.Rows,
		ExpRow{
			Label:    "hotspot: dt cold-port loss < static partition",
			Paper:    "threshold isolates [ChHa96]",
			Measured: fmt.Sprintf("dt=%d static=%d", dt, sp),
			OK:       dt < sp,
		},
		ExpRow{
			Label:    "hotspot: dt cold-port loss < complete sharing",
			Paper:    "threshold isolates [ChHa96]",
			Measured: fmt.Sprintf("dt=%d share=%d", dt, cs),
			OK:       dt < cs,
		})

	uniCS, uniSP := byKey["uniform/share"], byKey["uniform/static"]
	res.Rows = append(res.Rows, ExpRow{
		Label:    "uniform: sharing loses no more than partitioning",
		Paper:    "sharing gain (§2.2)",
		Measured: fmt.Sprintf("share=%d static=%d", uniCS.Dropped, uniSP.Dropped),
		OK:       uniCS.Dropped <= uniSP.Dropped,
	})

	po := byKey["hotspot/pushout"]
	res.Rows = append(res.Rows, ExpRow{
		Label:    "hotspot: push-out losses land on the hog",
		Paper:    "LQF preempts longest queue",
		Measured: fmt.Sprintf("hot=%d cold=%d refused=%d", po.OutputDrops[hot], coldPortLoss(po, hot), po.DropPolicy),
		OK:       po.OutputDrops[hot] > coldPortLoss(po, hot) && po.DropPolicy == 0,
	})
	return res, nil
}
