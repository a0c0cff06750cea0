package fabric

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"

	"pipemem/internal/obs"
	"pipemem/internal/trace"
	"pipemem/internal/traffic"
)

// traceNet attaches a flight tracer writing into a fresh buffer.
func traceNet(t *testing.T, f *Net, sample int) (*bytes.Buffer, *obs.Tracer) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(obs.NewJSONLSink(&buf), 0, 1)
	if err := f.SetFlightTrace(tr, sample); err != nil {
		t.Fatal(err)
	}
	return &buf, tr
}

// TestFlightTraceBitIdentical is the trace arm of the parallel
// determinism proof: the span JSONL stream must be byte-identical at
// every worker count, because sampling keys off the flight sequence
// number and the barrier merge serializes span records in global node
// order regardless of sharding.
func TestFlightTraceBitIdentical(t *testing.T) {
	cfg := Config{
		Terminals: 256, Radix: 2, WordBits: 16, SwitchCells: 16,
		Credits: 4, CutThrough: true,
	}
	tc := traffic.Config{Kind: traffic.Hotspot, Load: 0.8, HotFrac: 0.3, Seed: 910}
	const cycles, sample = 700, 5

	cfg.Workers = 1
	ref, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	refBuf, refTr := traceNet(t, ref, sample)
	driveCollect(t, ref, tc, cycles)
	if err := refTr.Close(); err != nil {
		t.Fatal(err)
	}
	ref.Close()
	if refBuf.Len() == 0 {
		t.Fatal("reference run produced an empty trace")
	}

	for _, workers := range []int{2, 4} {
		cfg.Workers = workers
		par, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		buf, tr := traceNet(t, par, sample)
		driveCollect(t, par, tc, cycles)
		if err := tr.Close(); err != nil {
			t.Fatal(err)
		}
		par.Close()
		if !bytes.Equal(buf.Bytes(), refBuf.Bytes()) {
			a, b := refBuf.Bytes(), buf.Bytes()
			line := 1
			for i := 0; i < len(a) && i < len(b); i++ {
				if a[i] != b[i] {
					break
				}
				if a[i] == '\n' {
					line++
				}
			}
			t.Fatalf("workers=%d: trace diverges from sequential reference at line %d (%d vs %d bytes)",
				workers, line, len(b), len(a))
		}
	}
}

// TestFlightTraceReconciles ties the span trail back to the engine's own
// latency accounting, on both topologies: at sampling 1 every delivered
// cell must appear as a completed flight whose hop latencies sum (plus
// one wire cycle per stage boundary) to the EvEject end-to-end latency,
// and the mean over those flights must equal Result's MeanLatency. The
// traced hops must land on every node of every stage — for the Clos, the
// round-robin middle choice is visible in the span stream.
func TestFlightTraceReconciles(t *testing.T) {
	for name, build := range map[string]func(workers int) (*Net, error){
		"butterfly-64-r4": butterfly(64, 4),
		"clos-r6-m4":      closNet(6, 4),
	} {
		t.Run(name, func(t *testing.T) {
			f, err := build(2)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			buf, tr := traceNet(t, f, 1)
			res, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.7, Seed: 23}, 0, 1200)
			if err != nil {
				t.Fatal(err)
			}
			if err := tr.Close(); err != nil {
				t.Fatal(err)
			}

			set, err := trace.Parse(buf)
			if err != nil {
				t.Fatal(err)
			}
			if set.Skipped != 0 || set.Orphans != 0 {
				t.Fatalf("span stream not clean: %d skipped, %d orphans", set.Skipped, set.Orphans)
			}
			if set.Stages != f.Stages() {
				t.Fatalf("trace shows %d stages, fabric has %d", set.Stages, f.Stages())
			}
			rep := trace.Analyze(set, 0)
			if len(rep.Mismatches) > 0 {
				m := rep.Mismatches[0]
				t.Fatalf("%d flights fail e2e = Σhops + (stages-1); first: seq=%d hopsum=%d e2e=%d",
					len(rep.Mismatches), m.Seq, m.HopSum, m.E2E)
			}
			if rep.Incomplete != 0 {
				t.Fatalf("%d ejected flights are missing hop records", rep.Incomplete)
			}
			if int64(rep.Flights) != res.Injected {
				t.Fatalf("traced %d injects, fabric injected %d", rep.Flights, res.Injected)
			}
			if rep.E2E.Count != res.Delivered {
				t.Fatalf("completed flights %d != delivered %d", rep.E2E.Count, res.Delivered)
			}
			if math.Abs(rep.E2E.Mean-res.MeanLatency) > 1e-9 {
				t.Fatalf("trace mean %.9f != fabric mean %.9f", rep.E2E.Mean, res.MeanLatency)
			}
			seen := make([]map[int]bool, f.Stages())
			for _, fl := range set.Flights {
				for _, h := range fl.Hops {
					if seen[h.Stage] == nil {
						seen[h.Stage] = map[int]bool{}
					}
					seen[h.Stage][h.Node] = true
				}
			}
			for st := range seen {
				if nodes := len(f.ArrivalsAt(st)); len(seen[st]) != nodes {
					t.Fatalf("stage %d hops landed on %d of %d nodes", st, len(seen[st]), nodes)
				}
			}
		})
	}
}

// TestFlightTraceGolden pins the span JSONL schema byte-for-byte: the
// analyzer, external tooling and DESIGN.md §14 all quote these exact
// shapes, so a drift must be a conscious decision. Regenerate with
// PIPEMEM_UPDATE_GOLDEN=1 go test ./internal/fabric -run FlightTraceGolden
func TestFlightTraceGolden(t *testing.T) {
	f, err := New(Config{
		Terminals: 16, Radix: 4, WordBits: 16, SwitchCells: 8,
		Credits: 2, CutThrough: true, Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	buf, tr := traceNet(t, f, 3)
	if _, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.6, Seed: 7}, 0, 60); err != nil {
		t.Fatal(err)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}

	golden := filepath.Join("testdata", "flight_spans.golden")
	if os.Getenv("PIPEMEM_UPDATE_GOLDEN") == "1" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, buf.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with PIPEMEM_UPDATE_GOLDEN=1)", err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("span JSONL diverged from %s (%d vs %d bytes) — if the schema change is intended, regenerate with PIPEMEM_UPDATE_GOLDEN=1 and update DESIGN.md §14",
			golden, buf.Len(), len(want))
	}
}

// TestTelemetryRing checks the fixed-cadence sampler end to end on a
// real run: rows land on the cadence, the column set matches the stage
// layout, and the ring holds plausible state (inflight never negative,
// occupancy bounded by capacity).
func TestTelemetryRing(t *testing.T) {
	f, err := New(Config{
		Terminals: 64, Radix: 4, WordBits: 16, SwitchCells: 16,
		Credits: 4, CutThrough: true, Workers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	const every = 16
	ts := f.EnableTelemetry(64, every)
	if _, err := f.Run(traffic.Config{Kind: traffic.Bernoulli, Load: 0.8, Seed: 5}, 0, 1000); err != nil {
		t.Fatal(err)
	}
	if ts.Len() != 63 { // 1000/16 = 62 full strides + cycle 0, ring cap 64
		t.Fatalf("ring holds %d rows, want 63", ts.Len())
	}
	wantCols := 3*f.Stages() + 1
	if len(ts.Names()) != wantCols {
		t.Fatalf("%d columns, want %d (%v)", len(ts.Names()), wantCols, ts.Names())
	}
	cap64 := int64(16) // SwitchCells per node
	for i := 0; i < ts.Len(); i++ {
		cyc, row := ts.Row(i)
		if cyc%every != 0 {
			t.Fatalf("row %d sampled at cycle %d, not on the %d-cycle cadence", i, cyc, every)
		}
		for st := 0; st < f.Stages(); st++ {
			if b := row[3*st]; b < 0 || b > cap64*16 {
				t.Fatalf("row %d stage %d buffered %d out of range", i, st, b)
			}
			if mq := row[3*st+1]; mq < 0 || mq > cap64 {
				t.Fatalf("row %d stage %d maxq %d out of range", i, st, mq)
			}
		}
		if inf := row[len(row)-1]; inf < 0 {
			t.Fatalf("row %d negative inflight %d", i, inf)
		}
	}
}
