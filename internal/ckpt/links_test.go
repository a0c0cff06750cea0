package ckpt

import (
	"encoding/json"
	"strings"
	"testing"

	"pipemem/internal/fault"
)

// linkSpec is the matrix's plain spec behind CRC links, with word drops
// and corruptions landing on the wires often enough that at most cycles
// some link is retransmitting, backing off or holding a queue.
func linkSpec(t testing.TB, policy string) Spec {
	t.Helper()
	spec := specFor(t, policy, false)
	spec.LinkProtect = true
	spec.Plan = fault.Random(31, fault.RandomOptions{
		Cycles: spec.Cycles, Events: 120, Stages: 8, WordBits: 16, Inputs: 4,
		Kinds: []fault.Kind{fault.LinkCorrupt, fault.LinkDrop},
	})
	spec.FaultSeed = 5
	return spec
}

// linkCuts are the places a checkpoint must be able to land inside the
// link protocol, as predicates on the stage state at a cycle boundary.
var linkCuts = map[string]func(cycle int64, ls fault.LinkState) bool{
	"mid-retransmission": func(_ int64, ls fault.LinkState) bool { return ls.Seq != 0 && ls.Attempts > 0 && ls.Pos > 0 },
	"mid-backoff":        func(c int64, ls fault.LinkState) bool { return ls.Seq != 0 && ls.ResumeAt > c },
	"queued-behind":      func(_ int64, ls fault.LinkState) bool { return len(ls.Queue) > 0 },
	"wire-damaged": func(_ int64, ls fault.LinkState) bool {
		for _, lost := range ls.Lost {
			if lost {
				return true
			}
		}
		return false
	},
}

// stepUntil advances s (at least 100 cycles in) to the first cycle boundary
// where some link satisfies cut, and returns the checkpoint taken there.
// The plan is dense enough that every cut in linkCuts is reached.
func stepUntil(t testing.TB, s *Session, cut func(int64, fault.LinkState) bool) *Checkpoint {
	t.Helper()
	stepTo(t, s, 100)
	for {
		ck, err := s.Checkpoint()
		if err != nil {
			t.Fatal(err)
		}
		for _, ls := range ck.Links.Links {
			if cut(s.Switch().Cycle(), ls) {
				return ck
			}
		}
		if ok, err := s.Step(); err != nil || !ok {
			t.Fatalf("run ended before the cut was reached: ok=%v err=%v", ok, err)
		}
	}
}

// TestResumeRejectsImpossibleLinkState: link state is read from a file, so
// everything a running stage could not have held must be refused by the
// restore, with an error, before the first Tick.
func TestResumeRejectsImpossibleLinkState(t *testing.T) {
	s, err := New(linkSpec(t, ""), Options{})
	if err != nil {
		t.Fatal(err)
	}
	good := stepUntil(t, s, func(c int64, ls fault.LinkState) bool {
		return ls.Seq != 0 && ls.ResumeAt > c && len(ls.Queue) > 0
	})
	// busy is the link the cut found; idle any link between cells, if the
	// cut left one (rows that need one are skipped otherwise).
	busy, idle := -1, -1
	for i, ls := range good.Links.Links {
		if ls.Seq != 0 && len(ls.Queue) > 0 {
			busy = i
		} else if ls.Seq == 0 {
			idle = i
		}
	}
	if _, err := ResumeFrom(good, Options{}); err != nil {
		t.Fatalf("untouched checkpoint refused: %v", err)
	}
	k := good.CellLen
	for _, tc := range []struct {
		name    string
		mutate  func(st *fault.StageState, ls *fault.LinkState)
		wantSub string
	}{
		{"position past the cell", func(_ *fault.StageState, ls *fault.LinkState) { ls.Pos = k }, "position"},
		{"negative position", func(_ *fault.StageState, ls *fault.LinkState) { ls.Pos = -1 }, "position"},
		{"attempts over budget", func(st *fault.StageState, ls *fault.LinkState) { ls.Attempts = st.MaxRetries + 1 }, "attempt"},
		{"short wire", func(_ *fault.StageState, ls *fault.LinkState) { ls.Wire = ls.Wire[:k-1] }, "wire of"},
		{"long lost mask", func(_ *fault.StageState, ls *fault.LinkState) { ls.Lost = append(ls.Lost, true) }, "lost mask"},
		{"wire word too wide", func(_ *fault.StageState, ls *fault.LinkState) { ls.Wire[2] = 1 << 20 }, "wider than"},
		{"destination out of range", func(_ *fault.StageState, ls *fault.LinkState) { ls.Dst = 4 }, "out of range"},
		{"queued destination out of range", func(_ *fault.StageState, ls *fault.LinkState) { ls.Queue[0].Dst = -1 }, "out of range"},
		{"duplicate seq", func(_ *fault.StageState, ls *fault.LinkState) { ls.Queue[0].Seq = ls.Seq }, "held twice"},
		{"seq never offered", func(_ *fault.StageState, ls *fault.LinkState) { ls.Queue[len(ls.Queue)-1].Seq = 1 << 40 }, "cells offered"},
		{"backoff into the far future", func(_ *fault.StageState, ls *fault.LinkState) { ls.ResumeAt = 1 << 50 }, "resumes at"},
		{"negative tally", func(_ *fault.StageState, ls *fault.LinkState) { ls.Failed = -1 }, "tallies"},
		{"idle link with a queue", func(_ *fault.StageState, ls *fault.LinkState) { ls.Seq = 0 }, "idle link"},
		{"a link too few", func(st *fault.StageState, _ *fault.LinkState) { st.Links = st.Links[:3] }, "3 links"},
		{"retry budget of zero", func(st *fault.StageState, _ *fault.LinkState) { st.MaxRetries = 0 }, "0 retries"},
		{"a held cell gone missing", func(_ *fault.StageState, ls *fault.LinkState) { ls.Queue = ls.Queue[:len(ls.Queue)-1] }, "does not balance"},
		{"an abandoned cell too many", func(_ *fault.StageState, ls *fault.LinkState) { ls.Failed++ }, "does not balance"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ck := *good
			ck.Links = cloneStage(t, good.Links)
			tc.mutate(ck.Links, &ck.Links.Links[busy])
			_, err := ResumeFrom(&ck, Options{})
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("ResumeFrom error %v, want one mentioning %q", err, tc.wantSub)
			}
		})
	}
	if idle >= 0 {
		ck := *good
		ck.Links = cloneStage(t, good.Links)
		ck.Links.Links[idle].Pos = 1
		if _, err := ResumeFrom(&ck, Options{}); err == nil || !strings.Contains(err.Error(), "idle link") {
			t.Fatalf("idle link mid-cell: ResumeFrom error %v", err)
		}
	}
}

// cloneStage deep-copies link state through its serialized form.
func cloneStage(t *testing.T, st *fault.StageState) *fault.StageState {
	t.Helper()
	body, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	out := new(fault.StageState)
	if err := json.Unmarshal(body, out); err != nil {
		t.Fatal(err)
	}
	return out
}
