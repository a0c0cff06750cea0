package obs

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenCompare checks got against testdata/<name>, rewriting it under
// -update.
func goldenCompare(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s mismatch\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// goldenRegistry builds a registry with one metric of every kind and
// deterministic values — the fixture behind the exposition goldens.
func goldenRegistry() *Registry {
	r := NewRegistry()
	c := r.Counter("pipemem_write_waves_total", "Write waves initiated (cells accepted into the shared buffer).")
	c.Add(42)
	g := r.Gauge("pipemem_buffered_cells", "Cells currently held in the shared buffer.")
	g.Set(17)
	v := r.GaugeVec("pipemem_output_queue_depth", "Cells queued per output across its VCs.", "output", 3)
	v.At(0).Set(5)
	v.At(1).Set(0)
	v.At(2).Set(12)
	h := r.Histogram("pipemem_cut_latency_cycles", "Head-in to head-out latency.", ExpBounds(2, 2, 4))
	for _, s := range []int64{2, 3, 5, 9, 40} {
		h.Observe(s)
	}
	// Help-string escaping: backslash and newline must survive the trip.
	e := r.Gauge("pipemem_escape_check", "line one\nback\\slash")
	e.Set(1)
	return r
}

// TestPrometheusGolden pins the text exposition format byte-for-byte: a
// scraper-visible surface whose accidental drift would break dashboards.
func TestPrometheusGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	goldenCompare(t, "expo.golden", buf.Bytes())
}

// TestJSONSnapshotGolden pins the JSON snapshot schema.
func TestJSONSnapshotGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenRegistry().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("snapshot is not valid JSON")
	}
	goldenCompare(t, "snapshot.golden", buf.Bytes())
}

// TestJSONLGolden pins the trace-stream wire format: one typed event of
// every kind, including the kind-specific value keys.
func TestJSONLGolden(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	events := []Event{
		{Kind: EvWriteWave, Cycle: 10, In: 1, Out: -1, Addr: 7},
		{Kind: EvReadWave, Cycle: 11, In: -1, Out: 3, Addr: 7},
		{Kind: EvCutThrough, Cycle: 12, In: 0, Out: 2, Addr: 9},
		{Kind: EvWaveEnd, Cycle: 20, In: -1, Out: 3, Addr: -1, V: 9},
		{Kind: EvStall, Cycle: 21, In: -1, Out: -1, Addr: -1, V: 4},
		{Kind: EvCRCRetransmit, Cycle: 31, In: 2, Out: -1, Addr: -1, V: 1},
	}
	for _, e := range events {
		s.Event(e)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s.Lines() != int64(len(events)) {
		t.Fatalf("Lines = %d, want %d", s.Lines(), len(events))
	}
	// Every line must be standalone valid JSON.
	for _, line := range bytes.Split(bytes.TrimRight(buf.Bytes(), "\n"), []byte("\n")) {
		if !json.Valid(line) {
			t.Fatalf("invalid JSON line: %s", line)
		}
	}
	goldenCompare(t, "trace.golden", buf.Bytes())
}
