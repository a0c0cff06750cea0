package trace

import (
	"fmt"
	"io"
	"strings"

	"pipemem/internal/core"
)

// VCD (Value Change Dump) export of the fig. 5 control/datapath trace:
// the per-cycle TraceEvents are rendered as an IEEE-1364 VCD stream that
// waveform viewers (GTKWave etc.) display directly — the natural way to
// eyeball an RTL model's waves.
//
// Signals per memory stage s:
//
//	M<s>_op[1:0]    00 idle, 01 write, 10 read, 11 write-through
//	M<s>_addr[15:0] buffer address of the executing wave (x when idle)
//	M<s>_drive[7:0] outgoing link driven by output register s (x when not)
//
// plus per input i: in<i>_latch[7:0], the word index being latched
// (x when the link is idle; 0 marks a new head).

// VCDWriter incrementally emits a VCD stream from trace events.
type VCDWriter struct {
	w       io.Writer
	k, n    int
	cycleNs float64
	started bool
	err     error
	// previous values, to emit changes only
	prevOp    []core.Op
	prevDrive []int
	prevLatch []int
}

// NewVCDWriter prepares a VCD stream for the switch's geometry with the
// given clock period (timescale granularity 1 ns; each cycle advances the
// VCD time by cycleNs). Install the returned writer's Trace method as the
// switch tracer:
//
//	vw := trace.NewVCDWriter(f, sw, 16)
//	sw.SetTracer(vw.Trace)
//	… run …
//	err := vw.Err()
func NewVCDWriter(w io.Writer, s *core.Switch, cycleNs float64) *VCDWriter {
	if cycleNs <= 0 {
		cycleNs = 1
	}
	cfg := s.Config()
	return &VCDWriter{w: w, k: cfg.Stages, n: cfg.Ports, cycleNs: cycleNs}
}

// idOp/idAddr/idDrive/idLatch build the short VCD identifier codes.
func (v *VCDWriter) idOp(s int) string    { return fmt.Sprintf("o%d", s) }
func (v *VCDWriter) idAddr(s int) string  { return fmt.Sprintf("a%d", s) }
func (v *VCDWriter) idDrive(s int) string { return fmt.Sprintf("d%d", s) }
func (v *VCDWriter) idLatch(i int) string { return fmt.Sprintf("l%d", i) }

func (v *VCDWriter) header() {
	fmt.Fprintf(v.w, "$version pipemem pipelined-memory trace $end\n")
	fmt.Fprintf(v.w, "$timescale 1ns $end\n")
	fmt.Fprintf(v.w, "$scope module pipemem $end\n")
	for s := 0; s < v.k; s++ {
		fmt.Fprintf(v.w, "$var wire 2 %s M%d_op [1:0] $end\n", v.idOp(s), s)
		fmt.Fprintf(v.w, "$var wire 16 %s M%d_addr [15:0] $end\n", v.idAddr(s), s)
		fmt.Fprintf(v.w, "$var wire 8 %s M%d_drive [7:0] $end\n", v.idDrive(s), s)
	}
	for i := 0; i < v.n; i++ {
		fmt.Fprintf(v.w, "$var wire 8 %s in%d_latch [7:0] $end\n", v.idLatch(i), i)
	}
	fmt.Fprintf(v.w, "$upscope $end\n$enddefinitions $end\n")
}

// opBits renders an Op kind as the 2-bit VCD vector value.
func opBits(k core.OpKind) string {
	switch k {
	case core.OpWrite:
		return "b01"
	case core.OpRead:
		return "b10"
	case core.OpWriteThrough:
		return "b11"
	default:
		return "b00"
	}
}

// bitVec renders a non-negative integer as a binary vector, or x for -1.
func bitVec(val, width int) string {
	if val < 0 {
		return "bx"
	}
	var b strings.Builder
	b.WriteByte('b')
	started := false
	for p := width - 1; p >= 0; p-- {
		bit := (val >> p) & 1
		if bit == 1 {
			started = true
		}
		if started || p == 0 {
			b.WriteByte(byte('0' + bit))
		}
	}
	return b.String()
}

// Trace consumes one per-cycle event; install it with Switch.SetTracer.
func (v *VCDWriter) Trace(e core.TraceEvent) {
	if v.err != nil {
		return
	}
	out := &strings.Builder{}
	if !v.started {
		v.header()
		v.prevOp = make([]core.Op, v.k)
		v.prevDrive = make([]int, v.k)
		v.prevLatch = make([]int, v.n)
		for s := range v.prevDrive {
			v.prevDrive[s] = -2 // force initial emit
		}
		for i := range v.prevLatch {
			v.prevLatch[i] = -2
		}
		for s := range v.prevOp {
			v.prevOp[s] = core.Op{Kind: core.OpWriteThrough + 1} // impossible: force emit
		}
		v.started = true
	}
	fmt.Fprintf(out, "#%d\n", int64(float64(e.Cycle)*v.cycleNs))
	for s := 0; s < v.k && s < len(e.Ctrl); s++ {
		op := e.Ctrl[s]
		if op != v.prevOp[s] {
			fmt.Fprintf(out, "%s %s\n", opBits(op.Kind), v.idOp(s))
			addr := -1
			if op.Kind != core.OpNone {
				addr = op.Addr
			}
			fmt.Fprintf(out, "%s %s\n", bitVec(addr, 16), v.idAddr(s))
			v.prevOp[s] = op
		}
		drive := -1
		if s < len(e.OutDrive) {
			drive = e.OutDrive[s]
		}
		if drive != v.prevDrive[s] {
			fmt.Fprintf(out, "%s %s\n", bitVec(drive, 8), v.idDrive(s))
			v.prevDrive[s] = drive
		}
	}
	for i := 0; i < v.n && i < len(e.InLatch); i++ {
		if e.InLatch[i] != v.prevLatch[i] {
			fmt.Fprintf(out, "%s %s\n", bitVec(e.InLatch[i], 8), v.idLatch(i))
			v.prevLatch[i] = e.InLatch[i]
		}
	}
	if _, err := io.WriteString(v.w, out.String()); err != nil {
		v.err = err
	}
}

// Err returns the first write error, if any.
func (v *VCDWriter) Err() error { return v.err }
