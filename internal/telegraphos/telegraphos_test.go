package telegraphos

import (
	"math"
	"math/rand/v2"
	"testing"

	"pipemem/internal/cell"
)

func approx(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %v, want ≈%v", name, got, want)
	}
}

// TestModelSpecs reproduces the published §4 figures for all three
// prototypes (E8).
func TestModelSpecs(t *testing.T) {
	t1 := TelegraphosI()
	approx(t, "T1 link rate", t1.LinkMbps(), 107, 1) // "107 Mbps/link"
	if t1.PacketBytes() != 8 || t1.Stages != 8 || t1.Ports != 4 {
		t.Errorf("T1 geometry wrong: %+v", t1)
	}

	t2 := TelegraphosII()
	approx(t, "T2 link rate", t2.LinkMbps(), 400, 0.01) // "400 Mbps"
	if t2.PacketBytes() != 16 || t2.Stages != 8 || t2.Ports != 4 {
		t.Errorf("T2 geometry wrong: %+v", t2)
	}

	t3 := TelegraphosIII()
	approx(t, "T3 link rate", t3.LinkMbps(), 1000, 0.01) // 1 Gb/s worst case
	approx(t, "T3 typical", t3.LinkGbpsTypical(), 1.6, 0.01)
	approx(t, "T3 buffer", t3.BufferKbit(), 64, 0.01) // 64 Kbit
	approx(t, "T3 aggregate", t3.AggregateGbps(), 16, 0.01)
	if t3.PacketBytes() != 32 || t3.Stages != 16 || t3.Ports != 8 {
		t.Errorf("T3 geometry wrong: %+v", t3)
	}
	if t3.Cells != 256 {
		t.Errorf("T3 capacity %d cells, want 256", t3.Cells)
	}

	if len(Models()) != 3 {
		t.Error("Models() must return the three prototypes")
	}
	if t3.String() == "" {
		t.Error("empty String()")
	}
}

func newPacket(m Model, rng *rand.Rand, seq, header uint64) *Packet {
	payload := make([]cell.Word, m.Stages-1)
	for i := range payload {
		payload[i] = cell.Word(rng.Uint64()).Mask(m.WordBits)
	}
	return &Packet{Header: header, Payload: payload, Seq: seq}
}

// TestRoutingTranslation: the RT block really routes by header.
func TestRoutingTranslation(t *testing.T) {
	m := TelegraphosII()
	s, err := NewSwitch(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoute(100, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.SetRoute(100, 99); err == nil {
		t.Fatal("out-of-range route accepted")
	}
	rng := rand.New(rand.NewPCG(1, 1))
	p := newPacket(m, rng, 1, 100)
	pkts := make([]*Packet, m.Ports)
	pkts[0] = p
	s.Tick(pkts)
	if s.PendingHeaders() != 1 {
		t.Fatalf("HM holds %d headers, want 1", s.PendingHeaders())
	}
	for i := 0; i < 4*m.Stages; i++ {
		s.Tick(nil)
	}
	deps := s.Drain()
	if len(deps) != 1 {
		t.Fatalf("%d departures", len(deps))
	}
	if deps[0].Output != 3 {
		t.Fatalf("departed on %d, want RT-translated 3", deps[0].Output)
	}
	if !deps[0].Cell.Equal(deps[0].Expected) {
		t.Fatal("packet corrupted")
	}
	if s.PendingHeaders() != 0 {
		t.Fatal("HM entry not reclaimed after departure")
	}
}

// TestCreditFlowControl: with zero credits nothing leaves; returning
// credits releases exactly that many packets ([KVES95]).
func TestCreditFlowControl(t *testing.T) {
	m := TelegraphosII()
	s, err := NewSwitch(m, 1)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(2, 2))
	// Send three packets to output 0 (header 0 routes to 0 by default).
	for j := 0; j < 3; j++ {
		pkts := make([]*Packet, m.Ports)
		pkts[0] = newPacket(m, rng, uint64(j+1), 0)
		s.Tick(pkts)
		for i := 1; i < m.Stages; i++ {
			s.Tick(nil)
		}
	}
	for i := 0; i < 6*m.Stages; i++ {
		s.Tick(nil)
	}
	// One credit: exactly one packet out, two parked in the buffer.
	if got := len(s.Drain()); got != 1 {
		t.Fatalf("%d departures with 1 credit, want 1", got)
	}
	if s.Credits(0) != 0 {
		t.Fatalf("credits = %d, want 0", s.Credits(0))
	}
	// Return one credit → exactly one more departure.
	s.ReturnCredit(0)
	for i := 0; i < 6*m.Stages; i++ {
		s.Tick(nil)
	}
	if got := len(s.Drain()); got != 1 {
		t.Fatalf("%d departures after 1 credit return, want 1", got)
	}
	// Return two credits → the last packet leaves; credits cap at max.
	s.ReturnCredit(0)
	s.ReturnCredit(0)
	for i := 0; i < 6*m.Stages; i++ {
		s.Tick(nil)
	}
	if got := len(s.Drain()); got != 1 {
		t.Fatalf("%d departures after returns, want 1", got)
	}
	if s.Credits(0) > 1 {
		t.Fatalf("credits %d exceed allowance 1", s.Credits(0))
	}
}

// TestCreditsBoundInFlight: under sustained pressure, departures per
// output never exceed credits granted.
func TestCreditsBoundInFlight(t *testing.T) {
	m := TelegraphosIII()
	const allowance = 4
	s, err := NewSwitch(m, allowance)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewPCG(3, 3))
	var seq uint64
	departed := make([]int, m.Ports)
	credited := make([]int, m.Ports)
	for i := range credited {
		credited[i] = allowance
	}
	inFlight := make([]int, m.Ports) // cycles until input i free again
	for c := 0; c < 30_000; c++ {
		pkts := make([]*Packet, m.Ports)
		for i := range pkts {
			if inFlight[i] > 0 {
				inFlight[i]--
				continue
			}
			if rng.Float64() < 0.5 {
				seq++
				pkts[i] = newPacket(m, rng, seq, uint64(rng.IntN(m.Ports)))
				inFlight[i] = m.Stages - 1
			}
		}
		s.Tick(pkts)
		for _, d := range s.Drain() {
			departed[d.Output]++
		}
		// Downstream returns credits slowly (1 per output per 64 cycles).
		if c%64 == 0 {
			for o := 0; o < m.Ports; o++ {
				s.ReturnCredit(o)
				credited[o]++
			}
		}
		for o := 0; o < m.Ports; o++ {
			if departed[o] > credited[o] {
				t.Fatalf("cycle %d output %d: %d departures > %d credits", c, o, departed[o], credited[o])
			}
		}
	}
	total := 0
	for _, d := range departed {
		total += d
	}
	if total == 0 {
		t.Fatal("nothing departed")
	}
}

// TestAllModelsRunTraffic: each prototype's configuration drives cleanly
// at full admissible load (E8/E9 prerequisite).
func TestAllModelsRunTraffic(t *testing.T) {
	for _, m := range Models() {
		s, err := NewSwitch(m, 0)
		if err != nil {
			t.Fatalf("%s: %v", m.Name, err)
		}
		rng := rand.New(rand.NewPCG(7, 7))
		var seq uint64
		free := make([]int, m.Ports)
		delivered := 0
		for c := 0; c < 10_000; c++ {
			pkts := make([]*Packet, m.Ports)
			for i := range pkts {
				if free[i] > 0 {
					free[i]--
					continue
				}
				seq++
				// Rotating permutation headers → admissible full load.
				pkts[i] = newPacket(m, rng, seq, uint64((i+c/m.Stages)%m.Ports))
				free[i] = m.Stages - 1
			}
			s.Tick(pkts)
			for _, d := range s.Drain() {
				if !d.Cell.Equal(d.Expected) {
					t.Fatalf("%s: corruption", m.Name)
				}
				delivered++
			}
		}
		if delivered == 0 {
			t.Fatalf("%s: nothing delivered", m.Name)
		}
		if drops := s.Core().Counts().DropOverrun; drops != 0 {
			t.Fatalf("%s: %d drops at admissible load", m.Name, drops)
		}
	}
}
