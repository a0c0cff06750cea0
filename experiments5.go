package pipemem

import (
	"fmt"
	"time"

	"pipemem/internal/fabric"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/traffic"
)

// X6FabricScale exercises the sharded fabric engine: a 256-terminal
// radix-4 butterfly (256 nodes — four occupancy words, so worker counts
// 2 and 4 genuinely shard the node array) run under saturation at every
// worker count must produce bit-identical results — same cells, same
// cycles, same latency histogram — because the engine defers every
// cross-shard effect (credit releases, downstream head arrivals, drops,
// ejections) to the end-of-cycle barrier and merges in global node
// order. The aggregate switching rate is reported for the sequential
// reference; wall-clock scaling with workers is a multi-core observable
// and is not asserted here (single-CPU CI hosts would fail it).
func X6FabricScale(s Scale) (ExpResult, error) {
	var res ExpResult
	warm, meas := s.slots(2_000, 10_000), s.slots(8_000, 60_000)
	run := func(workers int) (engine.Result, float64, error) {
		f, err := fabric.New(fabric.Config{
			Terminals: 256, Radix: 4, WordBits: 16, SwitchCells: 16,
			Credits: 4, CutThrough: true, Workers: workers,
		})
		if err != nil {
			return engine.Result{}, 0, err
		}
		defer f.Close()
		start := time.Now()
		r, err := f.Run(traffic.Config{Kind: traffic.Saturation, Seed: 6161}, warm, meas)
		if err != nil {
			return engine.Result{}, 0, err
		}
		if err := f.Audit(); err != nil {
			return engine.Result{}, 0, fmt.Errorf("workers=%d: %w", workers, err)
		}
		agg := float64(r.Delivered*int64(f.Stages())) / time.Since(start).Seconds()
		return r, agg, nil
	}
	ref, agg, err := run(1)
	if err != nil {
		return res, err
	}
	for _, w := range []int{2, 4} {
		r, _, err := run(w)
		if err != nil {
			return res, err
		}
		res.Rows = append(res.Rows, ExpRow{
			Label:    fmt.Sprintf("workers=%d vs sequential reference", w),
			Paper:    "bit-identical (barrier-deferred cross-shard effects)",
			Measured: fmt.Sprintf("delivered %d vs %d, mean latency %.4f vs %.4f", r.Delivered, ref.Delivered, r.MeanLatency, ref.MeanLatency),
			OK:       r == ref,
		})
	}
	res.Rows = append(res.Rows,
		ExpRow{
			Label:    "interior links at saturation: drops / corrupt / latency overflow",
			Paper:    "0 / 0 / 0 (credits + end-to-end verification)",
			Measured: fmt.Sprintf("%d / %d / %d", ref.InteriorDrops, ref.Corrupt, ref.LatencyOverflow),
			OK:       ref.InteriorDrops == 0 && ref.Corrupt == 0 && ref.LatencyOverflow == 0,
		},
		ExpRow{
			Label:    "aggregate switching rate, sequential (delivered × stages / wall)",
			Paper:    "reported; scales with cores via sharding",
			Measured: fmt.Sprintf("%.2fM cells/sec", agg/1e6),
			OK:       agg > 0,
		},
	)
	res.Notes = "bit-identity makes worker count a pure performance knob: any parallel run is exactly reproducible by the sequential engine"
	return res, nil
}
