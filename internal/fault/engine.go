package fault

import (
	"fmt"
	"math/rand/v2"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/stats"
)

// Target is what an Engine injects into: the switch's seams, and
// optionally the CRC links in front of its inputs (nil Links skips link
// events).
type Target struct {
	Switch *core.Switch
	Links  []*Link
}

// Engine walks a Plan and fires each event at its cycle. Everything it
// does is deterministic in (plan, seed): "any" targets are resolved with
// its own PCG stream, never the traffic's.
type Engine struct {
	plan *Plan
	idx  int
	// pcg is the concrete source behind rng, retained so checkpointing can
	// reach the PCG's MarshalBinary/UnmarshalBinary.
	pcg     *rand.PCG
	rng     *rand.Rand
	counter stats.Counter
	// applied and skipped are the counter's hot slots, one per kind, so an
	// event costs an add, not a tally name.
	applied, skipped [numKinds]*int64
}

// appliedName and skippedName are the counter names, "applied-<kind>" and
// "skipped-<kind>", built once.
var appliedName, skippedName = tallyNames("applied-"), tallyNames("skipped-")

func tallyNames(prefix string) (names [numKinds]string) {
	for k, kind := range kindNames {
		names[k] = prefix + kind
	}
	return names
}

// NewEngine returns an engine over plan (which must be cycle-ordered, as
// Parse and Random produce). The seed resolves "any" targets.
func NewEngine(plan *Plan, seed uint64) *Engine {
	pcg := rand.NewPCG(seed, 0xd1342543de82ef95)
	e := &Engine{
		plan: plan,
		pcg:  pcg,
		rng:  rand.New(pcg),
	}
	for k := range e.applied {
		e.applied[k], e.skipped[k] = e.counter.Hot(appliedName[k]), e.counter.Hot(skippedName[k])
	}
	return e
}

// Step fires every event scheduled at the given cycle. Call it once per
// cycle, before the switch's Tick for that cycle. Events that would change
// nothing — a target that cannot be resolved (no live buffer word, an idle
// link) or that the switch lacks, a mask the word width cuts to zero, a
// stuck level the bank already has — are skipped and counted; applied and
// skipped tallies are per kind in Counters.
func (e *Engine) Step(t Target, cycle int64) {
	for e.idx < len(e.plan.Events) && e.plan.Events[e.idx].Cycle <= cycle {
		ev := e.plan.Events[e.idx]
		e.idx++
		if ev.Cycle < cycle {
			continue // scheduled before the run started; unreachable now
		}
		if e.apply(t, ev) {
			*e.applied[ev.Kind]++
		} else {
			*e.skipped[ev.Kind]++
		}
	}
}

// Done reports that every event in the plan has been fired or passed over.
func (e *Engine) Done() bool { return e.idx >= len(e.plan.Events) }

// Counters exposes the applied-/skipped- tallies per fault kind.
func (e *Engine) Counters() *stats.Counter { return &e.counter }

// Applied returns how many events of kind k actually hit a target.
func (e *Engine) Applied(k Kind) int64 { return *e.applied[k] }

// Skipped returns how many events of kind k found no target.
func (e *Engine) Skipped(k Kind) int64 { return *e.skipped[k] }

func (e *Engine) apply(t Target, ev Event) bool {
	s := t.Switch
	cfg := s.Config()
	bits := ev.Bits.Mask(cfg.WordBits)
	if ev.Bits == 0 {
		bits = cell.Word(1) << uint(e.rng.IntN(cfg.WordBits))
	} else if bits == 0 {
		return false
	}
	switch ev.Kind {
	case Mem:
		stage, addr := ev.Stage, ev.Addr
		if stage == Any {
			stage = e.rng.IntN(cfg.Stages)
		}
		if stage < 0 || stage >= cfg.Stages || addr != Any && (addr < 0 || addr >= cfg.Cells) {
			return false
		}
		if addr == Any {
			// Pick a live target: a word that is fully written, still
			// queued for reading, and currently clean — the regime where
			// SEC-DED corrects the flip exactly once (and the read scrubs
			// it). The random starting offset keeps the choice unbiased.
			addr = -1
			off := e.rng.IntN(cfg.Cells)
			for j := 0; j < cfg.Cells; j++ {
				a := (off + j) % cfg.Cells
				if s.AddrStable(a) && s.MemoryClean(stage, a) {
					addr = a
					break
				}
			}
			if addr < 0 {
				return false
			}
		}
		s.InjectMemoryFault(stage, addr, bits)
		return true
	case Stuck:
		return s.SetStageStuck(ev.Stage, !ev.Off)
	case InReg:
		if ev.In < 0 || ev.In >= cfg.Ports || ev.Word < 0 || ev.Word >= cfg.Stages {
			return false
		}
		s.InjectInputRegisterFault(ev.In, ev.Word, bits)
		return true
	case LinkDrop, LinkCorrupt:
		if ev.In < 0 || ev.In >= len(t.Links) {
			return false
		}
		if ev.Kind == LinkDrop {
			return t.Links[ev.In].DropWord(ev.Word)
		}
		return t.Links[ev.In].CorruptWord(ev.Word, bits)
	}
	return false
}

// EngineState is the exported state of an Engine, sufficient — together
// with the plan and seed it was built from — to resume event delivery bit
// for bit. RNG is the marshaled PCG state.
type EngineState struct {
	Idx      int
	RNG      []byte
	Counters map[string]int64
}

// State exports the engine for checkpointing.
func (e *Engine) State() (*EngineState, error) {
	rngState, err := e.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("fault: marshal PCG: %w", err)
	}
	return &EngineState{
		Idx:      e.idx,
		RNG:      rngState,
		Counters: e.counter.Snapshot(),
	}, nil
}

// RestoreEngine rebuilds an engine over plan from a checkpointed state.
// The seed argument is unused for randomness (the RNG state overrides it)
// but must still identify the same plan semantics the checkpoint captured.
func RestoreEngine(plan *Plan, st *EngineState) (*Engine, error) {
	e := NewEngine(plan, 0)
	if st.Idx < 0 || st.Idx > len(plan.Events) {
		return nil, fmt.Errorf("fault: engine state index %d out of range for plan with %d events", st.Idx, len(plan.Events))
	}
	if err := e.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("fault: restore PCG: %w", err)
	}
	e.idx = st.Idx
	for name, v := range st.Counters {
		e.counter.Set(name, v)
	}
	return e, nil
}

// Report is the outcome of a fault run, as ckpt.Session.Report fills it:
// the run's result, what the links in front of the switch did (zero without
// link protection), the switch's counters ("ecc-corrected", "ecc-hard", …)
// and the engine's applied-/skipped- tallies per fault kind.
type Report struct {
	core.RunResult
	// Corrupt counts delivered cells whose payload differed from the
	// offered payload — the quantity the defense layers exist to keep at
	// zero: those the switch damaged (RunResult.Corrupt) plus those that
	// slipped past a link's CRC.
	Corrupt int64
	// LinkFailed counts cells abandoned by the link protocol,
	// LinkRetransmits NAK-triggered retransmissions across inputs.
	LinkFailed, LinkRetransmits int64
	Switch, Engine              map[string]int64
}

// String renders what pmsim prints under a fault run's result line: the
// defense layers' tallies, and one line per fault kind the plan held.
func (r *Report) String() string {
	s := fmt.Sprintf("corrupt=%d ecc-corrected=%d ecc-uncorrectable=%d ecc-hard=%d linkfailed=%d retransmits=%d",
		r.Corrupt, r.Switch["ecc-corrected"], r.Switch["ecc-uncorrectable"], r.Switch["ecc-hard"], r.LinkFailed, r.LinkRetransmits)
	for k := Kind(0); k < numKinds; k++ {
		if a, sk := r.Engine[appliedName[k]], r.Engine[skippedName[k]]; a+sk > 0 {
			s += fmt.Sprintf("\nfaults: %-11s applied=%d skipped=%d", k, a, sk)
		}
	}
	return s
}
