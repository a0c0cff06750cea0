package fault

import (
	"fmt"
	"math/rand/v2"

	"pipemem/internal/cell"
	"pipemem/internal/core"
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
	pcg *rand.PCG
	rng *rand.Rand
	// applied and skipped tally the fired events per kind.
	applied, skipped [numKinds]int64
}

// appliedName and skippedName are the tallies' names in a checkpoint,
// "applied-<kind>" and "skipped-<kind>", built once.
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
	return &Engine{
		plan: plan,
		pcg:  pcg,
		rng:  rand.New(pcg),
	}
}

// Step fires every event scheduled at the given cycle. Call it once per
// cycle, before the switch's Tick for that cycle. Events that would change
// nothing — a target that cannot be resolved (no live buffer word, an idle
// link) or that the switch lacks, a mask the word width cuts to zero, a
// stuck level the bank already has — are skipped and counted; applied and
// skipped tallies are per kind (Tallies).
func (e *Engine) Step(t Target, cycle int64) {
	for e.idx < len(e.plan.Events) && e.plan.Events[e.idx].Cycle <= cycle {
		ev := e.plan.Events[e.idx]
		e.idx++
		if ev.Cycle < cycle {
			continue // scheduled before the run started; unreachable now
		}
		if e.apply(t, ev) {
			e.applied[ev.Kind]++
		} else {
			e.skipped[ev.Kind]++
		}
	}
}

// Done reports that every event in the plan has been fired or passed over.
func (e *Engine) Done() bool { return e.idx >= len(e.plan.Events) }

// Tallies returns, indexed by Kind, how many events hit a target (applied)
// and how many found none (skipped).
func (e *Engine) Tallies() (applied, skipped [numKinds]int64) { return e.applied, e.skipped }

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
// for bit. RNG is the marshaled PCG state; Counters holds the nonzero
// tallies by name ("applied-mem", "skipped-linkdrop", …).
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
		Counters: e.tallies(),
	}, nil
}

// tallies returns the nonzero applied and skipped tallies by name.
func (e *Engine) tallies() map[string]int64 {
	m := make(map[string]int64)
	for k := range numKinds {
		if e.applied[k] != 0 {
			m[appliedName[k]] = e.applied[k]
		}
		if e.skipped[k] != 0 {
			m[skippedName[k]] = e.skipped[k]
		}
	}
	return m
}

// RestoreEngine rebuilds an engine over plan from a checkpointed state.
// The seed argument is unused for randomness (the RNG state overrides it)
// but must still identify the same plan semantics the checkpoint captured.
// A tally name no fault kind has is dropped.
func RestoreEngine(plan *Plan, st *EngineState) (*Engine, error) {
	e := NewEngine(plan, 0)
	if st.Idx < 0 || st.Idx > len(plan.Events) {
		return nil, fmt.Errorf("fault: engine state index %d out of range for plan with %d events", st.Idx, len(plan.Events))
	}
	if err := e.pcg.UnmarshalBinary(st.RNG); err != nil {
		return nil, fmt.Errorf("fault: restore PCG: %w", err)
	}
	e.idx = st.Idx
	for k := range numKinds {
		e.applied[k], e.skipped[k] = st.Counters[appliedName[k]], st.Counters[skippedName[k]]
	}
	return e, nil
}

// Report is the outcome of a fault run, as ckpt.Session.Report fills it:
// the run's result, what the links in front of the switch did (zero without
// link protection), the switch's counts and the engine's applied and
// skipped tallies per fault kind.
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
	Switch                      core.Counts
	Applied, Skipped            [numKinds]int64
}

// String renders what pmsim prints under a fault run's result line: the
// defense layers' tallies, and one line per fault kind the plan held.
func (r *Report) String() string {
	s := fmt.Sprintf("corrupt=%d ecc-corrected=%d ecc-uncorrectable=%d ecc-hard=%d linkfailed=%d retransmits=%d",
		r.Corrupt, r.Switch.ECCCorrected, r.Switch.ECCUncorrectable, r.Switch.ECCHard, r.LinkFailed, r.LinkRetransmits)
	for k := Kind(0); k < numKinds; k++ {
		if a, sk := r.Applied[k], r.Skipped[k]; a+sk > 0 {
			s += fmt.Sprintf("\nfaults: %-11s applied=%d skipped=%d", k, a, sk)
		}
	}
	return s
}
