package trace

import (
	"bytes"
	"io"
	"strings"
	"testing"
)

// sample is a handcrafted two-stage stream: seq 4 completes cleanly,
// seq 8 is dropped mid-path, seq 12 is still in flight, and the stream
// interleaves a non-span RTL event plus one orphaned hop.
const sample = `{"ev":"inject","cycle":0,"seq":4,"term":1,"dst":6,"node":0}
{"ev":"read-wave","cycle":1,"in":0,"out":2,"addr":7}
{"ev":"hop","cycle":3,"seq":4,"stage":0,"node":0,"depth":2,"latency":3}
{"ev":"inject","cycle":4,"seq":8,"term":3,"dst":5,"node":1}
{"ev":"hop","cycle":6,"seq":8,"stage":0,"node":1,"depth":0,"latency":2}
{"ev":"hop","cycle":9,"seq":4,"stage":1,"node":3,"depth":1,"latency":5}
{"ev":"eject","cycle":9,"seq":4,"term":6,"node":3,"latency":9}
{"ev":"drop","cycle":11,"out":5,"addr":2,"v":7,"seq":8}
{"ev":"inject","cycle":12,"seq":12,"term":0,"dst":7,"node":0}
{"ev":"hop","cycle":14,"seq":99,"stage":1,"node":2,"depth":0,"latency":2}
`

func TestParse(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Flights) != 3 {
		t.Fatalf("%d flights, want 3", len(s.Flights))
	}
	if s.Stages != 2 {
		t.Fatalf("stages %d, want 2", s.Stages)
	}
	if s.Skipped != 1 {
		t.Fatalf("skipped %d, want 1 (the read-wave line)", s.Skipped)
	}
	if s.Orphans != 1 {
		t.Fatalf("orphans %d, want 1 (the seq-99 hop)", s.Orphans)
	}
	f := s.Flights[0]
	if f.Seq != 4 || f.Term != 1 || f.Dst != 6 || f.InjectCycle != 0 {
		t.Fatalf("flight 4 header: %+v", f)
	}
	if !f.Complete(2) || f.HopSum() != 8 || f.EjectLatency != 9 {
		t.Fatalf("flight 4 path: hops=%v eject=%d", f.Hops, f.EjectLatency)
	}
	if f.Hops[0].Depth != 2 || f.Hops[1].Node != 3 {
		t.Fatalf("flight 4 hops: %+v", f.Hops)
	}
	d := s.Flights[1]
	if !d.Dropped || d.DropCycle != 11 || d.DropNode != 2 || d.DropLatency != 7 {
		t.Fatalf("flight 8 drop: %+v", d)
	}
	if s.Flights[2].Ejected || s.Flights[2].Dropped {
		t.Fatalf("flight 12 should be in flight: %+v", s.Flights[2])
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	if _, err := Parse(strings.NewReader("{\"ev\":\"inject\"\n")); err == nil {
		t.Fatal("malformed JSON line must be an error")
	}
}

// TestParseRejectsOutOfRangeStage: a stage below 0 used to index Analyze's
// per-stage tables at −1, and one near 2³¹ sized them to that length.
// Both are refused at the line that carries them.
func TestParseRejectsOutOfRangeStage(t *testing.T) {
	for _, tc := range []struct{ stream, want string }{
		{`{"ev":"inject","cycle":0,"seq":1,"term":0,"dst":1,"node":0}
{"ev":"hop","cycle":2,"seq":1,"stage":1,"node":0,"latency":2}
{"ev":"hop","cycle":3,"seq":1,"stage":-1,"node":0,"latency":1}
{"ev":"eject","cycle":4,"seq":1,"term":1,"node":0,"latency":4}
`, "line 3: hop stage -1"},
		{`{"ev":"hop","cycle":2,"seq":1,"stage":2147483646,"node":0,"latency":2}
`, "line 1: hop stage 2147483646"},
		{`{"ev":"hop","seq":1,"stage":64}
`, "line 1: hop stage 64"},
	} {
		_, err := Parse(strings.NewReader(tc.stream))
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Parse error %v, want one naming %q", err, tc.want)
		}
	}
	if s, err := Parse(strings.NewReader(`{"ev":"hop","seq":1,"stage":63}` + "\n")); err != nil || s.Orphans != 1 {
		t.Fatalf("stage 63: %v", err)
	}
}

// FuzzTraceParse feeds arbitrary streams through what pmtrace does with
// one — Parse, Analyze, WriteText — which must never panic, and whose
// per-stage tables stay within the MaxStages bound whatever the stream
// claims.
func FuzzTraceParse(f *testing.F) {
	f.Add([]byte(sample))
	f.Add([]byte(`{"ev":"inject","seq":1}` + "\n" + `{"ev":"hop","seq":1,"stage":-1}` + "\n" + `{"ev":"eject","seq":1}`))
	f.Add([]byte(`{"ev":"hop","seq":0,"stage":63}` + "\n" + `{"ev":"drop","seq":0,"addr":1}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.Stages < 0 || s.Stages > MaxStages {
			t.Fatalf("stages %d outside [0, %d]", s.Stages, MaxStages)
		}
		r := Analyze(s, 3)
		if len(r.StageStats) != s.Stages || r.Flights != len(s.Flights) {
			t.Fatalf("report of %d stages, %d flights from a set of %d, %d", len(r.StageStats), r.Flights, s.Stages, len(s.Flights))
		}
		if err := r.WriteText(io.Discard); err != nil {
			t.Fatal(err)
		}
	})
}

func TestAnalyze(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(s, 5)
	if r.Flights != 3 || r.Ejected != 1 || r.Dropped != 1 || r.InFlight != 1 || r.Incomplete != 0 {
		t.Fatalf("tallies: %+v", r)
	}
	// seq 4: hops 3+5, stages 2 → 8+1 = 9 = e2e. No mismatch.
	if len(r.Mismatches) != 0 {
		t.Fatalf("unexpected mismatches: %+v", r.Mismatches)
	}
	if r.E2E.Count != 1 || r.E2E.Mean != 9 || r.E2E.Max != 9 {
		t.Fatalf("e2e stats: %+v", r.E2E)
	}
	if r.StageStats[0].Mean != 3 || r.StageStats[1].Mean != 5 {
		t.Fatalf("stage stats: %+v", r.StageStats)
	}
	if r.DepthMean[0] != 2 || r.DepthMean[1] != 1 {
		t.Fatalf("depth means: %v", r.DepthMean)
	}
	if len(r.Worst) != 1 || r.Worst[0].Seq != 4 {
		t.Fatalf("worst paths: %+v", r.Worst)
	}
}

func TestAnalyzeFlagsMismatch(t *testing.T) {
	// A doctored eject latency (10 instead of 9) must fail reconciliation.
	doctored := strings.Replace(sample, `"node":3,"latency":9`, `"node":3,"latency":10`, 1)
	s, err := Parse(strings.NewReader(doctored))
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(s, 0)
	if len(r.Mismatches) != 1 {
		t.Fatalf("want 1 mismatch, got %+v", r.Mismatches)
	}
	m := r.Mismatches[0]
	if m.Seq != 4 || m.HopSum != 9 || m.E2E != 10 {
		t.Fatalf("mismatch: %+v", m)
	}
}

func TestAnalyzeIncomplete(t *testing.T) {
	// Seq 2 has its full two-hop trail; seq 6 ejects but lost its stage-1
	// hop record (truncated stream) — it counts as ejected yet must stay
	// out of the reconciliation population.
	const truncated = `{"ev":"inject","cycle":0,"seq":2,"term":0,"dst":3,"node":0}
{"ev":"hop","cycle":3,"seq":2,"stage":0,"node":0,"depth":0,"latency":3}
{"ev":"hop","cycle":7,"seq":2,"stage":1,"node":2,"depth":0,"latency":3}
{"ev":"eject","cycle":7,"seq":2,"term":3,"node":2,"latency":7}
{"ev":"inject","cycle":1,"seq":6,"term":1,"dst":2,"node":0}
{"ev":"hop","cycle":4,"seq":6,"stage":0,"node":0,"depth":1,"latency":3}
{"ev":"eject","cycle":9,"seq":6,"term":2,"node":2,"latency":8}
`
	s, err := Parse(strings.NewReader(truncated))
	if err != nil {
		t.Fatal(err)
	}
	r := Analyze(s, 5)
	if r.Incomplete != 1 || r.Ejected != 2 {
		t.Fatalf("tallies: %+v", r)
	}
	if r.E2E.Count != 1 || len(r.Mismatches) != 0 {
		t.Fatalf("incomplete flight leaked into reconciliation: %+v", r)
	}
}

func TestWriteText(t *testing.T) {
	s, err := Parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := Analyze(s, 5).WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"flights=3 ejected=1 dropped=1 in-flight=1",
		"hop0",
		"hop1",
		"seq=4 term=1->6 e2e=9",
		"reconciliation: all 1 completed flights satisfy e2e = Σhops + 1",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}
