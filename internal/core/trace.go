package core

import (
	"fmt"
	"strconv"
	"strings"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
)

// TraceEvent is a per-cycle snapshot of the control signals and datapath
// activity of the switch — the information fig. 5 of the paper plots: the
// stage-0 control word, its delayed copies at the other stages, the input
// register load enables, and the outgoing-link drives.
type TraceEvent struct {
	// Cycle is the clock cycle the event describes.
	Cycle int64
	// Ctrl[st] is the operation stage st performs in this cycle. Ctrl[0]
	// is the freshly arbitrated control word; Ctrl[s] equals the
	// previous cycle's Ctrl[s-1] (§3.3).
	Ctrl []Op
	// InLatch[i] is the word index input i latches at the end of this
	// cycle (0 = a new head), or -1 when the link is idle.
	InLatch []int
	// OutDrive[st] is the outgoing link that output register st drives
	// in this cycle, or -1.
	OutDrive []int
}

// String renders the event as one fig. 5-style line:
//
//	c=12 | M0:W(in1,a3) M1:R(out0,a2) M2:- M3:- | in: 0:h 1:2 | out: M1→0
func (e TraceEvent) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "c=%-4d |", e.Cycle)
	for st, op := range e.Ctrl {
		fmt.Fprintf(&b, " M%d:%s", st, op)
	}
	b.WriteString(" | in:")
	any := false
	for i, j := range e.InLatch {
		if j < 0 {
			continue
		}
		any = true
		if j == 0 {
			fmt.Fprintf(&b, " %d:h", i)
		} else {
			fmt.Fprintf(&b, " %d:%d", i, j)
		}
	}
	if !any {
		b.WriteString(" -")
	}
	b.WriteString(" | out:")
	any = false
	for st, o := range e.OutDrive {
		if o < 0 {
			continue
		}
		any = true
		fmt.Fprintf(&b, " M%d→%d", st, o)
	}
	if !any {
		b.WriteString(" -")
	}
	return b.String()
}

// AppendJSON appends the event's compact JSON encoding to buf and
// returns the extended slice — the machine-readable form of the fig. 5
// line, implementing obs.JSONAppender so the control trace rides the
// same JSONL stream as the typed event taxonomy:
//
//	{"cycle":12,"ctrl":[{"op":"W","in":1,"addr":3},{"op":"-"}],
//	 "in_latch":[0,-1],"out_drive":[-1,0]}
func (e TraceEvent) AppendJSON(buf []byte) []byte {
	b := append(buf, `{"cycle":`...)
	b = strconv.AppendInt(b, e.Cycle, 10)
	b = append(b, `,"ctrl":[`...)
	for st, op := range e.Ctrl {
		if st > 0 {
			b = append(b, ',')
		}
		b = append(b, `{"op":"`...)
		b = append(b, op.Kind.String()...)
		b = append(b, '"')
		switch op.Kind {
		case OpWrite:
			b = append(b, `,"in":`...)
			b = strconv.AppendInt(b, int64(op.In), 10)
		case OpRead:
			b = append(b, `,"out":`...)
			b = strconv.AppendInt(b, int64(op.Out), 10)
		case OpWriteThrough:
			b = append(b, `,"in":`...)
			b = strconv.AppendInt(b, int64(op.In), 10)
			b = append(b, `,"out":`...)
			b = strconv.AppendInt(b, int64(op.Out), 10)
		}
		if op.Kind != OpNone {
			b = append(b, `,"addr":`...)
			b = strconv.AppendInt(b, int64(op.Addr), 10)
		}
		b = append(b, '}')
	}
	b = append(b, `],"in_latch":[`...)
	for i, v := range e.InLatch {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	b = append(b, `],"out_drive":[`...)
	for i, v := range e.OutDrive {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, ']', '}')
}

// MarshalJSON implements json.Marshaler via AppendJSON.
func (e TraceEvent) MarshalJSON() ([]byte, error) { return e.AppendJSON(nil), nil }

// JSONTracer returns a SetTracer callback that encodes every per-cycle
// TraceEvent as one JSONL record on sink — the machine-readable
// replacement for printing TraceEvent.String lines.
func JSONTracer(sink *obs.JSONLSink) func(TraceEvent) {
	return func(e TraceEvent) { sink.Record(e) }
}

// drives returns the outgoing link the op loads an output register for —
// the link that register drives one cycle later — or -1.
func (o *Op) drives() int {
	if o.Kind == OpRead || o.Kind == OpWriteThrough {
		return o.Out
	}
	return -1
}

// tickTraced is one cycle under the fig. 5 tap, which sits outside the
// tick: it notes which link the op leaving stage k−1 loaded an output
// register for, before the cycle's arbitration reclaims that op's ring
// slot, runs the cycle, and reports it.
func (s *Switch) tickTraced(heads []*cell.Cell) {
	c := s.cycle
	tail := s.ctrl[s.slotOf(c)].drives()
	s.tick(heads)
	s.emitTrace(c, tail)
}

// emitTrace assembles and dispatches the TraceEvent of cycle c, which has
// just run, from the control ring and the input rows' occupancy. Ctrl[0] is
// the freshly arbitrated control word. A row latches word c−head of the
// cell it holds, word 0 being a head admitted this cycle. Output register
// st drives the link of the read or write-through that sat at stage st
// last cycle (§3.2): this cycle's Ctrl[st+1], and for the last stage tail,
// which tickTraced read off the ring before the cycle ran.
func (s *Switch) emitTrace(c int64, tail int) {
	e := TraceEvent{
		Cycle:    c,
		Ctrl:     make([]Op, s.k),
		InLatch:  make([]int, s.n),
		OutDrive: make([]int, s.k),
	}
	for st := range e.Ctrl {
		slot := s.ctrlSlot(c, st)
		e.Ctrl[st] = s.ctrl[slot]
		if st > 0 {
			e.OutDrive[st-1] = s.ctrl[slot].drives()
		}
	}
	e.OutDrive[s.k-1] = tail
	for i := range e.InLatch {
		e.InLatch[i] = -1
		if a := &s.inflight[i]; a.active && c-a.head < int64(s.k) {
			e.InLatch[i] = int(c - a.head)
		}
	}
	s.tracer(e)
}
