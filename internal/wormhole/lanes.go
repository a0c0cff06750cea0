package wormhole

import (
	"fmt"
	"math/bits"

	"pipemem/internal/cell"
	"pipemem/internal/fifo"
)

// This file adds virtual-channel lanes to the wormhole fabric — the other
// half of the [Dally90] figure §2.1 quotes: the paper cites the "1 lane"
// curve (saturation ≈25%); Dally's own contribution is that splitting
// each physical channel's buffer into multiple lanes lifts that
// saturation substantially, because a blocked message no longer
// monopolizes the physical channels it holds. Reproducing the lane effect
// completes the quoted figure.
//
// Model: each input line of each stage has L lanes, each a private flit
// FIFO of BufferFlits/L flits (constant total storage, as in the cited
// study). A head flit entering a switch claims a free lane on the
// *downstream* input; the physical inter-stage channel is multiplexed
// flit-by-flit among the lanes that can advance.

// LaneConfig parameterizes the multi-lane network.
type LaneConfig struct {
	// Terminals, BufferFlits, MsgFlits, Load, Saturate, Seed as in
	// Config; BufferFlits is the total per input line, divided evenly
	// among lanes.
	Terminals   int
	BufferFlits int
	MsgFlits    int
	Lanes       int
	Load        float64
	Saturate    bool
	Seed        uint64
}

// Validate reports whether the configuration is usable.
func (c LaneConfig) Validate() error {
	base := Config{Terminals: c.Terminals, BufferFlits: c.BufferFlits,
		MsgFlits: c.MsgFlits, Load: c.Load, Saturate: c.Saturate}
	if err := base.Validate(); err != nil {
		return err
	}
	if c.Lanes < 1 || c.Lanes > c.BufferFlits {
		return fmt.Errorf("wormhole: %d lanes for %d buffer flits", c.Lanes, c.BufferFlits)
	}
	return nil
}

// laneState is one virtual channel of one input line.
type laneState struct {
	buf *fifo.Ring[cell.Flit]
	// msg is the message that owns this lane (0 = free).
	msg uint64
	// out is the output line the owning message routes to (valid while
	// msg ≠ 0 and the head has been routed).
	out int
}

// LaneNet is the multi-lane wormhole network.
type LaneNet struct {
	stages int

	// lane[t][l][v]
	lane [][][]laneState
	// Physical channels are not held across flits with lanes: each flit
	// arbitrates, and rr[t][m] rotates fairness on output line m, one step
	// per contested grant.
	rr [][]uint8

	sent []bool

	source
}

// NewLanes builds the multi-lane network.
func NewLanes(cfg LaneConfig) (*LaneNet, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	n := cfg.Terminals
	s := bits.TrailingZeros(uint(n))
	per := cfg.BufferFlits / cfg.Lanes
	net := &LaneNet{
		stages: s,
		lane:   make([][][]laneState, s),
		rr:     make([][]uint8, s),
		sent:   make([]bool, n),
		source: newSource(n, cfg.MsgFlits, cfg.Load, cfg.Saturate, cfg.Seed, 0x9e3779b97f4a7c15),
	}
	for t := 0; t < s; t++ {
		net.lane[t] = make([][]laneState, n)
		net.rr[t] = make([]uint8, n)
		for l := 0; l < n; l++ {
			net.lane[t][l] = make([]laneState, cfg.Lanes)
			for v := range net.lane[t][l] {
				net.lane[t][l][v].buf = fifo.NewRing[cell.Flit](per)
			}
		}
	}
	return net, nil
}

func (w *LaneNet) bit(t int) int { return w.stages - 1 - t }

// Step advances one cycle.
func (w *LaneNet) Step() error {
	for t := w.stages - 1; t >= 0; t-- {
		b := w.bit(t)
		for l := range w.sent {
			w.sent[l] = false
		}
		for m := 0; m < w.n; m++ {
			if err := w.moveOnOutput(t, m, b); err != nil {
				return err
			}
		}
	}
	for l := 0; l < w.n; l++ {
		w.refill(l)
		// Injection claims a free lane at stage 0.
		if f, ok := w.src[l].Front(); ok {
			if f.Kind.IsHead() {
				if v := w.freeLane(0, l); v >= 0 {
					w.src[l].Pop()
					ln := &w.lane[0][l][v]
					ln.msg = f.Msg
					ln.buf.Push(f)
					w.injected++
				}
			} else if v, ok := w.downLaneOf(0, l, f.Msg); ok {
				// Body/tail follows the head's lane if space remains.
				if ln := &w.lane[0][l][v]; !ln.buf.Full() {
					w.src[l].Pop()
					ln.buf.Push(f)
					w.injected++
				}
			}
		}
	}
	w.cycle++
	return nil
}

// freeLane returns a free lane index at (stage, line), or -1.
func (w *LaneNet) freeLane(t, l int) int {
	for v := range w.lane[t][l] {
		ln := &w.lane[t][l][v]
		if ln.msg == 0 && ln.buf.Len() == 0 {
			return v
		}
	}
	return -1
}

// moveOnOutput advances at most one flit across the physical output line
// m of stage t, multiplexing its lanes round-robin.
func (w *LaneNet) moveOnOutput(t, m, b int) error {
	l0, l1 := m, m^(1<<b)
	inputs := [2]int{l0, l1}
	wantBit := (m >> b) & 1

	// Candidate lanes: any lane of either input whose front flit routes
	// to this output and can advance downstream.
	type cand struct{ l, v int }
	var cands []cand
	for _, l := range inputs {
		if w.sent[l] {
			continue
		}
		for v := range w.lane[t][l] {
			ln := &w.lane[t][l][v]
			f, ok := ln.buf.Front()
			if !ok {
				continue
			}
			if f.Kind.IsHead() {
				if (f.Dst>>b)&1 != wantBit {
					continue
				}
				// A head needs a free downstream lane (or ejection).
				if t+1 < w.stages && w.freeLane(t+1, m) < 0 {
					continue
				}
			} else {
				// Body/tail follows its message's downstream lane.
				if ln.out != m {
					continue
				}
				if t+1 < w.stages {
					dv, ok := w.downLaneOf(t+1, m, f.Msg)
					if !ok || w.lane[t+1][m][dv].buf.Full() {
						continue
					}
				}
			}
			cands = append(cands, cand{l, v})
		}
	}
	if len(cands) == 0 {
		return nil
	}
	// The pointer turns only on a contested grant: moving a message's
	// flits one at a time must not decide the next tie.
	pick := cands[int(w.rr[t][m])%len(cands)]
	if len(cands) > 1 {
		w.rr[t][m]++
	}

	ln := &w.lane[t][pick.l][pick.v]
	f, _ := ln.buf.Pop()
	w.sent[pick.l] = true
	if f.Kind.IsHead() {
		ln.msg = f.Msg
		ln.out = m
	}
	if f.Kind.IsTail() {
		ln.msg = 0
		ln.out = 0
	}
	if t+1 < w.stages {
		if f.Kind.IsHead() {
			dv := w.freeLane(t+1, m)
			dl := &w.lane[t+1][m][dv]
			dl.msg = f.Msg
			dl.buf.Push(f)
		} else {
			dv, _ := w.downLaneOf(t+1, m, f.Msg)
			w.lane[t+1][m][dv].buf.Push(f)
		}
		return nil
	}
	return w.eject(m, f)
}

// downLaneOf finds the lane message msg occupies at (stage, line).
func (w *LaneNet) downLaneOf(t, l int, msg uint64) (int, bool) {
	for v := range w.lane[t][l] {
		if w.lane[t][l][v].msg == msg {
			return v, true
		}
	}
	return 0, false
}
