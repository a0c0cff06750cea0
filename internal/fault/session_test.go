package fault_test

import (
	"testing"

	"pipemem/internal/ckpt"
	"pipemem/internal/core"
	"pipemem/internal/fault"
	"pipemem/internal/traffic"
)

// These are the traffic-driven fault runs. They go through ckpt.Session —
// the one driver pmsim and pmserve use, with the invariant auditor on — so
// what they assert holds for the product path, on any arrival process.

// runPlan drives one audited fault run to the end and returns its report.
// A run that carries a plan fails only on a conservation violation, a
// stalled drain or an audit failure; corruption is in the report.
func runPlan(t *testing.T, spec ckpt.Spec) *fault.Report {
	t.Helper()
	s, err := ckpt.New(spec, ckpt.Options{AuditEvery: 1000})
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run()
	if err != nil {
		t.Fatal(err)
	}
	return s.Report(res)
}

// arrivals are the four synthetic arrival processes. Only the Bernoulli
// one is loss-free on the soaks' 32-cell buffer; bursts, a hot output and
// saturation overrun it, and the defense layers' identities must hold
// through the drops.
func arrivals(load float64, seed uint64) map[string]traffic.Config {
	return map[string]traffic.Config{
		"bernoulli":  {Kind: traffic.Bernoulli, N: 4, Load: load, Seed: seed},
		"bursty":     {Kind: traffic.Bursty, N: 4, Load: load, BurstLen: 8, Seed: seed},
		"hotspot":    {Kind: traffic.Hotspot, N: 4, Load: load, HotFrac: 0.3, Seed: seed},
		"saturation": {Kind: traffic.Saturation, N: 4, Seed: seed},
	}
}

// TestChaosSoakECC is the headline robustness run: 1.2·10⁵ cycles of
// traffic on a 4×4 switch while a seeded random plan sprays single-bit
// upsets into the ECC-protected banks. Every flip targets a live, clean,
// fully written word, so SEC-DED must correct each one exactly once: zero
// corrupted deliveries, zero uncorrectable errors, and an ecc-corrected
// count that equals the number of applied faults. Cell conservation is
// audited by the session.
func TestChaosSoakECC(t *testing.T) {
	const cycles = 120_000
	plan := fault.Random(1234, fault.RandomOptions{
		Cycles: cycles, Events: 2000, Stages: 8, WordBits: 16, Inputs: 4,
	})
	for name, tr := range arrivals(0.6, 1234) {
		t.Run(name, func(t *testing.T) {
			// Store-and-forward, so every cell is parked in the banks for at
			// least one full wave time — the regime that exposes stored words
			// to upsets.
			rep := runPlan(t, ckpt.Spec{
				Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 32, ECC: true},
				Traffic: tr, Cycles: cycles,
				Plan: plan, FaultSeed: 1234,
			})
			applied := rep.Engine["applied-mem"]
			if applied < 1000 {
				t.Fatalf("only %d of %d planned faults found a live target; soak too idle", applied, len(plan.Events))
			}
			if rep.Corrupt != 0 {
				t.Fatalf("%d corrupted deliveries; ECC must absorb every single-bit upset", rep.Corrupt)
			}
			if got := rep.Switch["ecc-uncorrectable"]; got != 0 {
				t.Fatalf("ecc-uncorrectable = %d, want 0 under single-bit faults", got)
			}
			if got := rep.Switch["ecc-hard"]; got != 0 {
				t.Fatalf("ecc-hard = %d, want 0: every scrub of a transient upset must verify clean", got)
			}
			if got := rep.Switch["ecc-corrected"]; got != applied {
				t.Fatalf("ecc-corrected = %d, want exactly the %d applied faults", got, applied)
			}
			if rep.Health.Degraded || rep.Health.Failed {
				t.Fatalf("switch degraded under fully correctable faults: %+v", rep.Health)
			}
			if rep.Delivered == 0 || rep.Dropped != 0 && name == "bernoulli" {
				t.Fatalf("delivered=%d dropped=%d; soak load should be loss-free", rep.Delivered, rep.Dropped)
			}
		})
	}
}

// TestChaosSoakLinkProtect soaks the third defense layer: random word
// corruption and word drops on CRC-protected input links. Every hit must
// be caught by the CRC and repaired by retransmission — zero corrupted
// deliveries and zero abandoned cells (the fault rate is far below the
// retry budget) — while conservation, links included, holds end to end.
func TestChaosSoakLinkProtect(t *testing.T) {
	const cycles = 100_000
	plan := fault.Random(99, fault.RandomOptions{
		Cycles: cycles, Events: 600, Stages: 8, WordBits: 16, Inputs: 4,
		Kinds: []fault.Kind{fault.LinkCorrupt, fault.LinkDrop},
	})
	for name, tr := range arrivals(0.5, 99) {
		t.Run(name, func(t *testing.T) {
			rep := runPlan(t, ckpt.Spec{
				Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true},
				Traffic: tr, Cycles: cycles,
				Plan: plan, FaultSeed: 99, LinkProtect: true,
			})
			hits := rep.Engine["applied-linkcorrupt"] + rep.Engine["applied-linkdrop"]
			if hits < 100 {
				t.Fatalf("only %d link faults hit a transfer; soak too idle", hits)
			}
			if rep.Corrupt != 0 {
				t.Fatalf("%d corrupted deliveries slipped past the link CRC", rep.Corrupt)
			}
			if rep.LinkRetransmits == 0 {
				t.Fatal("no retransmissions recorded despite applied link faults")
			}
			if rep.LinkFailed != 0 {
				t.Fatalf("%d cells abandoned; isolated faults must be repaired within the retry budget", rep.LinkFailed)
			}
		})
	}
}

// TestFaultDetectionUnderLoad: sustained low-rate corruption of an
// unprotected buffer must always be caught by the end-to-end check —
// never more detections than injections, never zero — and is the run's
// measurement, not its failure.
func TestFaultDetectionUnderLoad(t *testing.T) {
	const cycles = 20_000
	plan := fault.Random(55, fault.RandomOptions{Cycles: cycles, Events: 40, Stages: 8, WordBits: 16, Inputs: 4})
	rep := runPlan(t, ckpt.Spec{
		Switch:  core.Config{Ports: 4, WordBits: 16, Cells: 32},
		Traffic: traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.5, Seed: 55},
		Cycles:  cycles,
		Plan:    plan, FaultSeed: 55,
	})
	applied := rep.Engine["applied-mem"]
	if applied == 0 {
		t.Fatal("no faults applied; test vacuous")
	}
	if rep.Corrupt == 0 {
		t.Fatalf("0 of %d injected faults detected", applied)
	}
	if rep.Corrupt > applied {
		t.Fatalf("%d corruptions reported for %d injected faults", rep.Corrupt, applied)
	}
}

// TestLinkStageZeroAlloc: the link stage recycles like the runner it sits
// on — a transferred cell is the pooled cell it was given, an abandoned one
// goes back to the pool, the sender queues are rings — so a link-protected
// run with retransmissions and abandoned cells allocates nothing once warm.
// (TestRunnerZeroAllocUnderDrops's shape, the faults fired by the engine.)
func TestLinkStageZeroAlloc(t *testing.T) {
	sw, err := core.New(core.Config{Ports: 4, WordBits: 16, Cells: 32, CutThrough: true})
	if err != nil {
		t.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Bernoulli, N: 4, Load: 0.5, Seed: 7}, sw.Config().Stages)
	if err != nil {
		t.Fatal(err)
	}
	const window = 20_000
	// An isolated flip every 61 cycles, repaired by one retransmission; and
	// on link 3, in every 2,000 cycles, 40 in a row — longer than a cell's
	// two retries last.
	plan := &fault.Plan{}
	for c := int64(0); c < 3*window; c++ { // warm-up, AllocsPerRun's own, the measured one
		if c%61 == 0 {
			plan.Events = append(plan.Events, fault.Event{Cycle: c, Kind: fault.LinkCorrupt, In: int(c % 3), Word: fault.Any, Bits: 1})
		}
		if c%2000 < 40 {
			plan.Events = append(plan.Events, fault.Event{Cycle: c, Kind: fault.LinkCorrupt, In: 3, Word: fault.Any, Bits: 1})
		}
	}
	r := core.NewRunner(sw, cs, 1<<30)
	st := fault.NewStage(sw.Geometry(), 2)
	r.Stage = st
	eng, target := fault.NewEngine(plan, 1), fault.Target{Switch: sw, Links: st.Links}
	r.PreTick = func(c int64) { eng.Step(target, c) }
	tallies := func() (retransmits, failed int64) {
		for _, l := range st.Links {
			retransmits += l.Retransmits
		}
		return retransmits, st.Failed()
	}
	for i := 0; i < window; i++ {
		r.Step()
	}
	rt0, failed0 := tallies()
	allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < window; i++ {
			r.Step()
		}
	})
	rt, failed := tallies()
	if rt-rt0 < 100 || failed-failed0 < 5 {
		t.Fatalf("%d retransmissions and %d abandoned cells in the measured windows; the drive tests nothing", rt-rt0, failed-failed0)
	}
	if allocs != 0 {
		t.Fatalf("%v allocations over %d link-protected cycles, want 0", allocs, window)
	}
	if err := sw.AuditInvariants(); err != nil {
		t.Fatal(err)
	}
}
