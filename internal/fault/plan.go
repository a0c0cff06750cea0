// Package fault is a deterministic, seedable fault-injection engine for
// the pipelined memory switch: it turns a fault plan — a schedule of
// {cycle, site, kind} events — into calls on the injection seams of
// core.Switch and the CRC-protected Link. It drives nothing itself: a
// ckpt.Session steps the engine from core.Runner's PreTick seam and puts
// the links (Stage) between the cell stream and the switch's inputs.
//
// # Fault-plan text format
//
// A plan is a line-oriented text. Blank lines and lines starting with '#'
// are ignored. Every other line schedules one event:
//
//	@<cycle> <kind> key=value ...
//
// with the kinds and their keys:
//
//	@120 mem stage=3 addr=any bits=0x10   # XOR bits into a stored word
//	@200 stuck stage=2                    # bank 2's data lines stick (reads
//	@400 stuck stage=2 off                #   all-ones); off clears
//	@50  ctrl stage=1 op=R out=0 addr=3   # overwrite a latched control word
//	@55  ctrl stage=1 op=-                # squash a latched control word
//	@70  inreg in=0 word=2 bits=0x4       # flip bits in an input register
//	@80  linkdrop in=1 word=any           # lose a word on input link 1
//	@90  linkcorrupt in=1 word=3 bits=1   # corrupt a word on input link 1
//
// `addr=any` and `word=any` (value Any, -1) let the engine pick a live
// target at fire time: for mem events it selects a stable, clean buffer
// word (so SEC-DED is guaranteed to correct the flip exactly once); for
// link events it targets the word currently on the wire. `bits` accepts
// decimal or 0x-hex; omitted (0) means a random single bit. Cycles need
// not be sorted in the text; the parsed plan is ordered.
package fault

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"sort"
	"strconv"
	"strings"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// ErrBadPlan is the sentinel wrapped by every fault-plan parse error.
var ErrBadPlan = errors.New("fault: invalid fault plan")

// Any, as an Event's Addr or Word, asks the engine to choose a live target
// at fire time.
const Any = -1

// Kind enumerates the fault sites.
type Kind uint8

const (
	// Mem XORs Bits into the buffer word at (Stage, Addr) — a single-event
	// upset in a memory bank; the stored check bits are left stale.
	Mem Kind = iota
	// Stuck sets (or, with Off, clears) a stuck-at fault on bank Stage:
	// reads return all-ones whatever was written.
	Stuck
	// Ctrl overwrites the control word latched at Stage with Op — a glitch
	// in the shifting control pipeline.
	Ctrl
	// InReg XORs Bits into input In's register for word position Word.
	InReg
	// LinkDrop loses word Word of the transfer in flight on input link In.
	LinkDrop
	// LinkCorrupt XORs Bits into word Word of the transfer in flight on
	// input link In.
	LinkCorrupt
	numKinds = iota
)

var kindNames = [numKinds]string{"mem", "stuck", "ctrl", "inreg", "linkdrop", "linkcorrupt"}

// kindKeys lists the keys each kind takes. Parse refuses any other: the
// event would not carry it, and String could not print it back.
var kindKeys = [numKinds]string{" stage addr bits ", " stage ", " stage op in out addr ", " in word bits ", " in word ", " in word bits "}

// String implements fmt.Stringer (the plan-format keyword).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one scheduled fault.
type Event struct {
	// Cycle is the clock cycle the fault fires at (applied before the
	// switch's Tick for that cycle).
	Cycle int64
	Kind  Kind
	// Stage is the memory bank / pipeline stage (Mem, Stuck, Ctrl).
	Stage int
	// Addr is the buffer address (Mem), or Any.
	Addr int
	// In is the input link (InReg, LinkDrop, LinkCorrupt).
	In int
	// Word is the word position (InReg) or in-flight word index
	// (LinkDrop, LinkCorrupt; Any = the word on the wire now).
	Word int
	// Bits is the XOR mask (Mem, InReg, LinkCorrupt); 0 means a random
	// single bit chosen at fire time.
	Bits cell.Word
	// Off clears a Stuck fault instead of setting it.
	Off bool
	// Op is the corrupted control word (Ctrl).
	Op core.Op
}

// String renders the event as one fault-plan line; Parse(e.String()) round-
// trips.
func (e Event) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "@%d %s", e.Cycle, e.Kind)
	anyOr := func(v int) string {
		if v == Any {
			return "any"
		}
		return strconv.Itoa(v)
	}
	switch e.Kind {
	case Mem:
		fmt.Fprintf(&b, " stage=%s addr=%s", anyOr(e.Stage), anyOr(e.Addr))
	case Stuck:
		fmt.Fprintf(&b, " stage=%d", e.Stage)
		if e.Off {
			b.WriteString(" off")
		}
	case Ctrl:
		fmt.Fprintf(&b, " stage=%d op=%s", e.Stage, e.Op.Kind)
		if e.Op.Kind != core.OpNone {
			fmt.Fprintf(&b, " in=%d out=%d addr=%d", e.Op.In, e.Op.Out, e.Op.Addr)
		}
	case InReg, LinkDrop, LinkCorrupt:
		fmt.Fprintf(&b, " in=%d word=%s", e.In, anyOr(e.Word))
	}
	if e.Bits != 0 { // Mem, InReg, LinkCorrupt: Parse lets no other kind carry a mask
		fmt.Fprintf(&b, " bits=%#x", uint64(e.Bits))
	}
	return b.String()
}

// Plan is a schedule of fault events, ordered by cycle (ties keep their
// textual order).
type Plan struct {
	Events []Event
}

// String renders the plan in the text format; Parse round-trips it.
func (p *Plan) String() string {
	var b strings.Builder
	for _, e := range p.Events {
		b.WriteString(e.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Parse reads a plan from its text format. Every error wraps ErrBadPlan
// and names the offending line.
func Parse(text string) (*Plan, error) {
	p := &Plan{}
	for ln, line := range strings.Split(text, "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		e, err := parseEvent(line)
		if err != nil {
			return nil, fmt.Errorf("%w: line %d: %v", ErrBadPlan, ln+1, err)
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Cycle < p.Events[j].Cycle })
	return p, nil
}

func parseEvent(line string) (Event, error) {
	var e Event
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return e, fmt.Errorf("want \"@cycle kind key=value...\", got %q", line)
	}
	if !strings.HasPrefix(fields[0], "@") {
		return e, fmt.Errorf("event must start with @cycle, got %q", fields[0])
	}
	cyc, err := strconv.ParseInt(fields[0][1:], 10, 64)
	if err != nil || cyc < 0 {
		return e, fmt.Errorf("bad cycle %q", fields[0][1:])
	}
	e.Cycle = cyc
	kind := -1
	for k, name := range kindNames {
		if fields[1] == name {
			kind = k
			break
		}
	}
	if kind < 0 {
		return e, fmt.Errorf("unknown fault kind %q", fields[1])
	}
	e.Kind = Kind(kind)
	e.Stage, e.Addr, e.In, e.Word = Any, Any, Any, Any
	opKind := core.OpKind(255)
	var opIn, opOut, opAddr int
	for _, f := range fields[2:] {
		if f == "off" && e.Kind == Stuck {
			e.Off = true
			continue
		}
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return e, fmt.Errorf("want key=value, got %q", f)
		}
		if !strings.Contains(kindKeys[e.Kind], " "+key+" ") {
			return e, fmt.Errorf("%s takes no key %q (it takes%s)", e.Kind, key, strings.TrimRight(kindKeys[e.Kind], " "))
		}
		switch key {
		case "stage":
			if e.Stage, err = parseIntOrAny(val, e.Kind == Mem); err != nil {
				return e, fmt.Errorf("stage: %v", err)
			}
		case "addr":
			v, err := parseIntOrAny(val, e.Kind == Mem)
			if err != nil {
				return e, fmt.Errorf("addr: %v", err)
			}
			if e.Kind == Ctrl {
				opAddr = v
			} else {
				e.Addr = v
			}
		case "in":
			v, err := parseIntOrAny(val, false)
			if err != nil {
				return e, fmt.Errorf("in: %v", err)
			}
			if e.Kind == Ctrl {
				opIn = v
			} else {
				e.In = v
			}
		case "out":
			if opOut, err = parseIntOrAny(val, false); err != nil {
				return e, fmt.Errorf("out: %v", err)
			}
		case "word":
			anyOK := e.Kind == LinkDrop || e.Kind == LinkCorrupt
			if e.Word, err = parseIntOrAny(val, anyOK); err != nil {
				return e, fmt.Errorf("word: %v", err)
			}
		case "bits":
			base := 10
			if strings.HasPrefix(val, "0x") {
				base, val = 16, val[2:]
			}
			u, err := strconv.ParseUint(val, base, 64)
			if err != nil {
				return e, fmt.Errorf("bits: bad mask %q", f)
			}
			e.Bits = cell.Word(u)
		case "op":
			switch val {
			case "-", "none":
				opKind = core.OpNone
			case "W", "w":
				opKind = core.OpWrite
			case "R", "r":
				opKind = core.OpRead
			case "T", "t":
				opKind = core.OpWriteThrough
			default:
				return e, fmt.Errorf("op: want one of - W R T, got %q", val)
			}
		default:
			return e, fmt.Errorf("unknown key %q", key)
		}
	}
	// Per-kind required keys (Mem accepts "any" everywhere).
	switch e.Kind {
	case Stuck:
		if e.Stage == Any {
			return e, fmt.Errorf("stuck: stage required")
		}
	case Ctrl:
		if e.Stage == Any {
			return e, fmt.Errorf("ctrl: stage required")
		}
		if opKind == core.OpKind(255) {
			return e, fmt.Errorf("ctrl: op required")
		}
		if opKind == core.OpNone && opIn|opOut|opAddr != 0 {
			return e, fmt.Errorf("ctrl: op=- squashes the control word and takes no in, out or addr")
		}
		e.Op = core.Op{Kind: opKind, In: opIn, Out: opOut, Addr: opAddr}
	case InReg:
		if e.In == Any || e.Word == Any {
			return e, fmt.Errorf("inreg: in and word required")
		}
	case LinkDrop, LinkCorrupt:
		if e.In == Any {
			return e, fmt.Errorf("%s: in required", e.Kind)
		}
	}
	return e, nil
}

// parseIntOrAny parses a non-negative integer, or "any" when permitted.
func parseIntOrAny(val string, anyOK bool) (int, error) {
	if val == "any" {
		if !anyOK {
			return 0, fmt.Errorf("\"any\" not allowed here")
		}
		return Any, nil
	}
	v, err := strconv.Atoi(val)
	if err != nil || v < 0 {
		return 0, fmt.Errorf("bad value %q", val)
	}
	return v, nil
}

// RandomOptions parameterizes Random.
type RandomOptions struct {
	// Cycles is the window faults are scheduled in: every event cycle is
	// uniform over [1, Cycles).
	Cycles int64
	// Events is the number of faults to schedule.
	Events int
	// Stages and WordBits describe the target switch (for stage indices
	// and bit masks).
	Stages, WordBits int
	// Inputs is the port count (link and input-register events).
	Inputs int
	// Kinds restricts the event mix; nil means memory upsets only (the
	// regime SEC-DED fully absorbs).
	Kinds []Kind
}

// Random builds a seeded random plan: deterministic for a given (seed,
// options) pair. Memory events target stage/addr "any" with a random
// single-bit mask, so the engine can pick live words at fire time.
func Random(seed uint64, o RandomOptions) *Plan {
	rng := rand.New(rand.NewPCG(seed, 0x6a09e667f3bcc909))
	kinds := o.Kinds
	if len(kinds) == 0 {
		kinds = []Kind{Mem}
	}
	if o.Cycles < 2 {
		o.Cycles = 2
	}
	p := &Plan{Events: make([]Event, 0, o.Events)}
	for i := 0; i < o.Events; i++ {
		e := Event{
			Cycle: 1 + rng.Int64N(o.Cycles-1),
			Kind:  kinds[rng.IntN(len(kinds))],
			Stage: Any, Addr: Any, In: Any, Word: Any,
		}
		bit := cell.Word(1) << uint(rng.IntN(max(o.WordBits, 1)))
		switch e.Kind {
		case Mem:
			e.Bits = bit
		case Stuck:
			e.Stage = rng.IntN(max(o.Stages, 1))
		case Ctrl:
			e.Stage = rng.IntN(max(o.Stages, 1))
			e.Op = core.Op{} // squash: the least catastrophic glitch
		case InReg:
			e.In = rng.IntN(max(o.Inputs, 1))
			e.Word = rng.IntN(max(o.Stages, 1))
			e.Bits = bit
		case LinkDrop:
			e.In = rng.IntN(max(o.Inputs, 1))
		case LinkCorrupt:
			e.In = rng.IntN(max(o.Inputs, 1))
			e.Bits = bit
		}
		p.Events = append(p.Events, e)
	}
	sort.SliceStable(p.Events, func(i, j int) bool { return p.Events[i].Cycle < p.Events[j].Cycle })
	return p
}
