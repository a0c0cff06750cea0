package engine

import (
	"fmt"

	"pipemem/internal/traffic"
)

// Result summarizes a run.
type Result struct {
	Cycles    int64
	Injected  int64
	Delivered int64
	// Drops counts every cell lost inside the net, whatever refused it.
	Drops int64
	// InteriorDrops are the drops at stages ≥ 1, behind credit-protected
	// links: zero under complete sharing with flow control on.
	InteriorDrops int64
	Corrupt       int64
	// LatencyOverflow counts latency samples that exceeded the histogram
	// range: nonzero means MeanLatency understates the tail.
	LatencyOverflow int64
	Throughput      float64 // delivered cell-words per cycle per terminal
	MeanLatency     float64 // inject→ejection head latency, cycles
	MinLatency      int64
}

// String implements fmt.Stringer.
func (r Result) String() string {
	s := fmt.Sprintf("cycles=%d injected=%d delivered=%d drops=%d thru=%.4f lat=%.2f minlat=%d",
		r.Cycles, r.Injected, r.Delivered, r.Drops, r.Throughput, r.MeanLatency, r.MinLatency)
	if r.InteriorDrops > 0 {
		s += fmt.Sprintf(" interior-drops=%d", r.InteriorDrops)
	}
	if r.Corrupt > 0 {
		s += fmt.Sprintf(" corrupt=%d", r.Corrupt)
	}
	if r.LatencyOverflow > 0 {
		s += fmt.Sprintf(" latency-overflow=%d", r.LatencyOverflow)
	}
	return s
}

// Drive offers cs's heads at the terminals and steps, for the given number
// of cycles: the loop of Run, and of every test and benchmark that does
// nothing else per cycle. Flights are numbered on from Injected, so a
// caller that also calls Inject must keep its own numbers clear of them.
func (e *Engine) Drive(cs *traffic.CellStream, cycles int64) error {
	for ; cycles > 0; cycles-- {
		cs.Heads(e.heads)
		for term, dst := range e.heads {
			if dst != traffic.NoArrival {
				e.Inject(term, dst, uint64(e.injected)+1)
			}
		}
		if err := e.Step(); err != nil {
			return err
		}
	}
	return nil
}

// Run drives the net with the given traffic for warmup+measure cycles.
func (e *Engine) Run(tcfg traffic.Config, warmup, measure int64) (Result, error) {
	tcfg.N = e.Terminals()
	cs, err := traffic.NewCellStream(tcfg, e.cellK)
	if err != nil {
		return Result{}, err
	}
	if err := e.Drive(cs, warmup); err != nil {
		return Result{}, err
	}
	start := e.delivered
	if err := e.Drive(cs, measure); err != nil {
		return Result{}, err
	}
	return Result{
		Cycles:          measure,
		Injected:        e.injected,
		Delivered:       e.delivered,
		Drops:           e.dropped,
		InteriorDrops:   e.interiorDropped,
		Corrupt:         e.Corrupt(),
		LatencyOverflow: e.latency.Overflow(),
		Throughput:      float64((e.delivered-start)*int64(e.cellK)) / float64(measure*int64(e.Terminals())),
		MeanLatency:     e.latency.Mean(),
		MinLatency:      e.latency.Quantile(0),
	}, nil
}
