package pipemem

// Cross-organization integration tests: the four shared-buffer RTL models
// (pipelined, its half-quantum pair, wide, PRIZMA-interleaved) are driven
// through the Organization contract with the SAME offered cell sequence and
// must agree on what they deliver, while their latencies order exactly as
// §3–§5 argue.

import (
	"testing"
)

// buildSchedule builds a deterministic head schedule in cell times, which
// every organization consumes at its own cell length.
type arrivalEvent struct {
	cellTime int
	input    int
	dst      int
}

func buildSchedule(n, cellTimes int) []arrivalEvent {
	var ev []arrivalEvent
	state := uint64(0x9e3779b97f4a7c15)
	next := func(mod int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(mod))
	}
	for ct := 0; ct < cellTimes; ct++ {
		for i := 0; i < n; i++ {
			if next(10) < 5 { // ~50% load
				ev = append(ev, arrivalEvent{cellTime: ct, input: i, dst: next(n)})
			}
		}
	}
	return ev
}

// integrationOrgs is the table the cross-organization tests iterate: the
// four memory organizations behind n links with ample buffering,
// cut-through where the organization has it for free (the wide memory's
// bypass crossbar stays off: it is the store-and-forward baseline here).
func integrationOrgs(t *testing.T, n int) []orgRow {
	t.Helper()
	return []orgRow{
		{"pipelined", false, must[*Switch](t)(New(Config{Ports: n, WordBits: 16, Cells: 16 * n, CutThrough: true}))},
		{"dual", false, must[*DualSwitch](t)(NewDual(Config{Ports: n, WordBits: 16, Cells: 8 * n, CutThrough: true}))},
		{"wide", true, must[*WideSwitch](t)(NewWide(WideConfig{Ports: n, WordBits: 16, Cells: 16 * n}))},
		{"prizma", true, must[*PrizmaSwitch](t)(NewPrizma(PrizmaConfig{Ports: n, Banks: 16 * n, WordBits: 16}))},
	}
}

type orgRow struct {
	name            string
	storeAndForward bool
	org             Organization
}

// must unwraps a constructor's (value, error) pair, failing the test on
// error.
func must[T any](t testing.TB) func(T, error) T {
	return func(v T, err error) T {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
}

// deliverySet runs one organization over the schedule, one cell time being
// its own cell length in cycles, and returns seq → headOut-headIn latency
// for every delivered cell.
func deliverySet(t *testing.T, row orgRow, events []arrivalEvent, cellTimes int) map[uint64]int64 {
	t.Helper()
	org := row.org
	g := org.Geometry()
	n, k := g.Ports, g.CellWords

	idx := 0
	got := map[uint64]int64{}
	var seq uint64
	totalCycles := (cellTimes + 8*n*4) * k
	for cyc := 0; cyc < totalCycles; cyc++ {
		var heads []*Cell
		if cyc%k == 0 {
			for ct := cyc / k; idx < len(events) && events[idx].cellTime == ct; idx++ {
				e := events[idx]
				seq++
				if heads == nil {
					heads = make([]*Cell, n)
				}
				heads[e.input] = NewCell(seq, e.input, e.dst, k, g.WordBits)
			}
		}
		org.Tick(heads)
		for _, d := range org.Drain() {
			if !d.Cell.Equal(d.Expected) {
				t.Fatalf("%s: corruption", row.name)
			}
			got[d.Cell.Seq] = d.HeadOut - d.HeadIn
		}
	}
	return got
}

// TestOrganizationsAgreeOnDelivery: identical offered cells, identical
// delivered sets — the four organizations are functionally equivalent
// switches (§3.2's starting point), differing only in cost and timing.
func TestOrganizationsAgreeOnDelivery(t *testing.T) {
	const n, cellTimes = 4, 400
	events := buildSchedule(n, cellTimes)
	var ref map[uint64]int64
	for _, row := range integrationOrgs(t, n) {
		got := deliverySet(t, row, events, cellTimes)
		if ref == nil {
			if ref = got; len(ref) == 0 {
				t.Fatal("nothing delivered")
			}
			continue
		}
		if len(got) != len(ref) {
			t.Fatalf("delivery counts disagree: pipelined %d, %s %d", len(ref), row.name, len(got))
		}
		for seqn := range ref {
			if _, ok := got[seqn]; !ok {
				t.Fatalf("%s lost cell %d", row.name, seqn)
			}
		}
	}
}

// TestOrganizationsLatencyOrdering: with cut-through the pipelined memory
// beats both store-and-forward organizations on mean head latency —
// §3.3's free cut-through made quantitative.
func TestOrganizationsLatencyOrdering(t *testing.T) {
	const n, cellTimes = 4, 400
	events := buildSchedule(n, cellTimes)
	mean := func(m map[uint64]int64) float64 {
		var s float64
		for _, v := range m {
			s += float64(v)
		}
		return s / float64(len(m))
	}
	var pip float64
	for _, row := range integrationOrgs(t, n) {
		got := mean(deliverySet(t, row, events, cellTimes))
		if row.name == "pipelined" {
			pip = got
		}
		if k := float64(row.org.Geometry().CellWords); row.storeAndForward && pip >= got-k/2 {
			t.Fatalf("pipelined CT (%.1f) not clearly below %s SF (%.1f)", pip, row.name, got)
		}
	}
}
