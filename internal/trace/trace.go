// Package trace reduces flight-span JSONL streams — the -fabric -trace
// output of pmsim (obs.JSONLSink's inject/hop/eject schema) — into
// per-stage latency breakdowns, worst-path reports and a reconciliation
// check tying the sampled hop latencies back to the end-to-end figure.
//
// The engine's timing model makes the spans self-checking: stage t's hop
// latency runs from the head's arrival at the node to the head on the
// outgoing link, and consecutive hops overlap by exactly one cycle of
// wire time per stage boundary, so for every completed flight
//
//	eject latency = Σ hop latencies + (stages − 1)
//
// Analyze verifies that identity per flight; a mismatch means the trace
// and the engine's latency accounting have diverged (a bug, not noise).
//
// The package also renders a single switch's fig. 5 trace as a VCD
// waveform (VCDWriter, vcd.go).
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// Hop is one stage crossing of a traced flight.
type Hop struct {
	Stage int   `json:"stage"`
	Node  int   `json:"node"`
	Cycle int64 `json:"cycle"` // cycle the hop record was emitted (head on wire)
	// Depth is the node's buffered-cell count when this head was admitted
	// — the queue the cell found in front of itself.
	Depth   int   `json:"depth"`
	Latency int64 `json:"latency"`
}

// Flight is one traced cell's reassembled path.
type Flight struct {
	Seq         uint64
	Term, Dst   int
	InjectCycle int64
	Hops        []Hop // ascending stage order once the set is sealed

	Ejected      bool
	EjectTerm    int
	EjectNode    int
	EjectCycle   int64
	EjectLatency int64

	Dropped     bool
	DropCycle   int64
	DropNode    int
	DropLatency int64 // cycles alive before the drop
}

// Complete reports whether the flight has its full span trail: an
// inject, an eject, and one hop per stage.
func (f *Flight) Complete(stages int) bool {
	return f.Ejected && len(f.Hops) == stages
}

// HopSum is the sum of the per-stage hop latencies.
func (f *Flight) HopSum() int64 {
	var s int64
	for _, h := range f.Hops {
		s += h.Latency
	}
	return s
}

// Set is a parsed trace: flights in inject order plus stream-level
// tallies.
type Set struct {
	Flights []*Flight
	// Stages is max(stage)+1 over all hop records — the fabric depth as
	// witnessed by the trace.
	Stages int
	// Skipped counts non-span lines (RTL events, raw records) ignored by
	// the parser; a span stream from pmsim -fabric has zero.
	Skipped int64
	// Orphans counts span lines whose seq had no prior inject — a
	// truncated or corrupted stream.
	Orphans int64

	bySeq map[uint64]*Flight
}

// MaxStages bounds the stage index a hop record may carry: Analyze sizes
// its per-stage tables by the deepest stage, so a stage is what a stream
// makes it allocate. No fabric the engine builds comes near it.
const MaxStages = 64

// line is the union of the span JSONL key vocabularies.
type line struct {
	Ev      string `json:"ev"`
	Cycle   int64  `json:"cycle"`
	Seq     uint64 `json:"seq"`
	Term    int    `json:"term"`
	Dst     int    `json:"dst"`
	Node    int    `json:"node"`
	Stage   int    `json:"stage"`
	Depth   int    `json:"depth"`
	Latency int64  `json:"latency"`
	// Flight-level drops ride the generic schema: out = destination
	// terminal, addr = node, v = cycles alive.
	Out  *int  `json:"out"`
	Addr *int  `json:"addr"`
	V    int64 `json:"v"`
}

// Parse reads a span JSONL stream and reassembles the flights. Lines
// that are not span records are counted in Skipped, not rejected — the
// sink interleaves schemas by design. A malformed JSON line is an error,
// and so is a hop whose stage lies outside [0, MaxStages).
func Parse(r io.Reader) (*Set, error) {
	s := &Set{bySeq: make(map[uint64]*Flight)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		switch l.Ev {
		case "inject":
			f := &Flight{Seq: l.Seq, Term: l.Term, Dst: l.Dst, InjectCycle: l.Cycle}
			s.Flights = append(s.Flights, f)
			s.bySeq[l.Seq] = f
		case "hop":
			if l.Stage < 0 || l.Stage >= MaxStages {
				return nil, fmt.Errorf("trace: line %d: hop stage %d outside [0, %d)", lineNo, l.Stage, MaxStages)
			}
			f := s.bySeq[l.Seq]
			if f == nil {
				s.Orphans++
				continue
			}
			f.Hops = append(f.Hops, Hop{
				Stage: l.Stage, Node: l.Node, Cycle: l.Cycle,
				Depth: l.Depth, Latency: l.Latency,
			})
			if l.Stage+1 > s.Stages {
				s.Stages = l.Stage + 1
			}
		case "eject":
			f := s.bySeq[l.Seq]
			if f == nil {
				s.Orphans++
				continue
			}
			f.Ejected = true
			f.EjectTerm = l.Term
			f.EjectNode = l.Node
			f.EjectCycle = l.Cycle
			f.EjectLatency = l.Latency
		case "drop":
			// Only flight-level drops carry a seq; node-local drop events
			// (seq 0 in the generic schema) are not span records.
			f := s.bySeq[l.Seq]
			if l.Seq == 0 || f == nil {
				s.Skipped++
				continue
			}
			f.Dropped = true
			f.DropCycle = l.Cycle
			if l.Addr != nil {
				f.DropNode = *l.Addr
			}
			f.DropLatency = l.V
		default:
			s.Skipped++
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
	}
	for _, f := range s.Flights {
		sort.Slice(f.Hops, func(i, j int) bool { return f.Hops[i].Stage < f.Hops[j].Stage })
	}
	return s, nil
}
