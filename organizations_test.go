package pipemem

// Tests of the Organization contract over the four memory organizations:
// golden pins for the three that are not core.Switch, the per-cycle
// obligations (conservation after every Tick, integrity of every
// departure, a drain that empties within the bound) under generated and
// fuzzed head schedules, and utilization as Run defines it.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"

	"pipemem/internal/core"
	"pipemem/internal/prizma"
	"pipemem/internal/traffic"
	"pipemem/internal/widemem"
)

// headCells turns one cycle's Heads vector into the cells Tick takes,
// reusing hc and numbering the cells on from *seq.
func headCells(heads []int, hc []*Cell, seq *uint64, g core.Geometry) []*Cell {
	for i, dst := range heads {
		hc[i] = nil
		if dst != traffic.NoArrival {
			*seq++
			hc[i] = NewCell(*seq, i, dst, g.CellWords, g.WordBits)
		}
	}
	return hc
}

// scribble overwrites a cell an organization has handed to its sink, so
// that one still reading the cell afterwards misroutes, mistimes or
// corrupts a later departure, and the test that installed the sink fails.
func scribble(c *Cell) {
	c.Seq, c.Dst = ^uint64(0), -1
	for j := range c.Words {
		c.Words[j] = 0xdead
	}
}

// orgPin is one golden row: the FNV-1a digest over every departure of a
// hand-driven run in completion order (sequence number, output, head-in,
// head-out, tail-out = head-out + k − 1) with the departure count beside
// it so a digest cannot match vacuously, and what Run reports for the same
// traffic.
type orgPin struct {
	digest                              uint64
	deps                                int
	cycles, offered, delivered, dropped int64
	meanLat                             string // %.4f
	minLat, cutthrough, busyWords       int64
}

// TestOrganizationsGolden pins dual, wide and PRIZMA at n = 8 with 64 cells
// of buffer under permutation, Bernoulli 0.8 and saturation traffic. The
// table was recorded from the three drivers Run replaced; busy words are
// Utilization × Cycles × n, the one definition Run has (the wide and PRIZMA
// drivers used to divide by the driven window alone).
func TestOrganizationsGolden(t *testing.T) {
	const n, cycles = 8, 2000
	golden := map[string]orgPin{
		"dual/ct/perm":          {0xce312ced4a5c41d1, 2000, 2016, 2000, 2000, 0, "12.3740", 2, 0, 16000},
		"dual/ct/bern0.8":       {0x797c40ffea66fcb6, 1615, 2028, 1615, 1615, 0, "16.4458", 2, 0, 12920},
		"dual/ct/sat":           {0x90f21922a4a96648, 1931, 2304, 2000, 1931, 69, "55.8866", 2, 0, 15448},
		"dual/sf/perm":          {0xf7ff199cb020327d, 2000, 2024, 2000, 2000, 0, "20.3880", 10, 0, 16000},
		"dual/sf/bern0.8":       {0xf7d5f4607d0a2177, 1615, 2035, 1615, 1615, 0, "25.9957", 10, 0, 12920},
		"dual/sf/sat":           {0x60d9eeb29eb95304, 1891, 2263, 2000, 1891, 109, "60.6880", 10, 0, 15128},
		"wide/crossbar/perm":    {0x4112d358e6f9b5f7, 1000, 2032, 1000, 1000, 0, "28.1020", 2, 15, 16000},
		"wide/crossbar/bern0.8": {0x1ed36f35e13b78ea, 799, 2083, 799, 799, 0, "31.9149", 2, 160, 12784},
		"wide/crossbar/sat":     {0xb11cbf8731c44e77, 1000, 2480, 1000, 1000, 0, "99.3800", 2, 38, 16000},
		"wide/sf/perm":          {0xf106aa7de4fb69b1, 1000, 2032, 1000, 1000, 0, "28.4500", 18, 0, 16000},
		"wide/sf/bern0.8":       {0xc4dbc624610a11ba, 799, 2096, 799, 799, 0, "41.3079", 18, 0, 12784},
		"wide/sf/sat":           {0xb94df1a5cc8c30f, 1000, 2477, 1000, 1000, 0, "103.6320", 18, 0, 16000},
		"prizma/64x1/perm":      {0xc53b1655096ed46c, 1000, 2017, 1000, 1000, 0, "17.0000", 17, 0, 16000},
		"prizma/64x1/bern0.8":   {0x841d598e8730f791, 799, 2094, 799, 799, 0, "38.5269", 17, 0, 12784},
		"prizma/64x1/sat":       {0x225d8f645c9f200, 993, 2449, 1000, 993, 7, "93.4874", 17, 0, 15888},
		"prizma/16x4/perm":      {0xc53b1655096ed46c, 1000, 2017, 1000, 1000, 0, "17.0000", 17, 0, 16000},
		"prizma/16x4/bern0.8":   {0x9d9848853389f052, 741, 2226, 799, 741, 58, "117.7490", 17, 0, 11856},
		"prizma/16x4/sat":       {0xc9cd38a9dda34270, 825, 2225, 1000, 825, 175, "109.9939", 17, 0, 13200},
	}
	orgs := []struct {
		name  string
		build func() Organization
	}{
		{"dual/ct", func() Organization {
			return must[*core.DualSwitch](t)(NewDual(Config{Ports: n, WordBits: 16, Cells: 32, CutThrough: true}))
		}},
		{"dual/sf", func() Organization {
			return must[*core.DualSwitch](t)(NewDual(Config{Ports: n, WordBits: 16, Cells: 32}))
		}},
		{"wide/crossbar", func() Organization {
			return must[*widemem.Switch](t)(NewWide(WideConfig{Ports: n, WordBits: 16, Cells: 64, CutThroughCrossbar: true}))
		}},
		{"wide/sf", func() Organization {
			return must[*widemem.Switch](t)(NewWide(WideConfig{Ports: n, WordBits: 16, Cells: 64}))
		}},
		{"prizma/64x1", func() Organization {
			return must[*prizma.Switch](t)(NewPrizma(PrizmaConfig{Ports: n, Banks: 64, CellsPerBank: 1, WordBits: 16}))
		}},
		{"prizma/16x4", func() Organization {
			return must[*prizma.Switch](t)(NewPrizma(PrizmaConfig{Ports: n, Banks: 16, CellsPerBank: 4, WordBits: 16}))
		}},
	}
	kinds := []struct {
		name string
		tc   TrafficConfig
	}{
		{"perm", TrafficConfig{Kind: Permutation, N: n, Load: 1, Seed: 7}},
		{"bern0.8", TrafficConfig{Kind: Bernoulli, N: n, Load: 0.8, Seed: 19}},
		{"sat", TrafficConfig{Kind: Saturation, N: n, Seed: 23}},
	}
	for _, o := range orgs {
		for _, kind := range kinds {
			name := o.name + "/" + kind.name
			t.Run(name, func(t *testing.T) {
				var got orgPin

				// Hand-driven: the traffic window, then an idle tail long
				// enough to empty any of the six.
				org := o.build()
				g := org.Geometry()
				k := g.CellWords
				cs := must[*traffic.CellStream](t)(NewCellStream(kind.tc, k))
				h := fnv.New64a()
				org.SetDepartureSink(func(c *Cell, out int, headIn, headOut int64, intact bool) {
					if !intact {
						t.Fatalf("cycle %d: cell %d corrupted on output %d", org.Cycle(), c.Seq, out)
					}
					fmt.Fprintf(h, "seq=%d out=%d in=%d headout=%d tailout=%d\n",
						c.Seq, out, headIn, headOut, headOut+int64(k)-1)
					got.deps++
					scribble(c)
				})
				heads := make([]int, n)
				hc := make([]*Cell, n)
				var seq uint64
				for c := 0; c < cycles+8*k*64; c++ {
					var in []*Cell
					if c < cycles {
						cs.Heads(heads)
						in = headCells(heads, hc, &seq, g)
					}
					org.Tick(in)
				}
				got.digest = h.Sum64()

				// Through Run, on a fresh instance and stream.
				org = o.build()
				r, err := Run(org, must[*traffic.CellStream](t)(NewCellStream(kind.tc, k)), cycles)
				if err != nil {
					t.Fatal(err)
				}
				got.cycles, got.offered, got.delivered, got.dropped = r.Cycles, r.Offered, r.Delivered, r.Dropped
				got.meanLat, got.minLat = fmt.Sprintf("%.4f", r.MeanCutLatency), r.MinCutLatency
				if w, ok := org.(*widemem.Switch); ok {
					got.cutthrough = w.CutThroughs()
				}
				got.busyWords = int64(math.Round(r.Utilization * float64(r.Cycles*n)))
				if got.busyWords != r.Delivered*int64(k) {
					t.Errorf("busy words %d, but %d cells of %d words were delivered", got.busyWords, r.Delivered, k)
				}
				if int64(got.deps) != r.Delivered {
					t.Errorf("hand-driven run delivered %d cells, Run %d", got.deps, r.Delivered)
				}

				if got != golden[name] {
					t.Errorf("got\n\t%q: {%#x, %d, %d, %d, %d, %d, %q, %d, %d, %d},\ngolden %+v",
						name, got.digest, got.deps, got.cycles, got.offered, got.delivered, got.dropped,
						got.meanLat, got.minLat, got.cutthrough, got.busyWords, golden[name])
				}
			})
		}
	}
}

// smallOrgs builds the four organizations behind n links with so little
// buffer (8 cells) that saturation overruns every one of them; the
// pipelined switch comes a second time behind pipelined links (§4.3).
func smallOrgs(t testing.TB, n int) []orgRow {
	t.Helper()
	return []orgRow{
		{"pipelined", false, must[*Switch](t)(New(Config{Ports: n, WordBits: 16, Cells: 8, CutThrough: true}))},
		{"pipelined/linkpipe", false, must[*Switch](t)(New(Config{Ports: n, WordBits: 16, Cells: 8, CutThrough: true, LinkPipeline: 2}))},
		{"dual", false, must[*core.DualSwitch](t)(NewDual(Config{Ports: n, WordBits: 16, Cells: 4, CutThrough: true}))},
		{"wide", false, must[*widemem.Switch](t)(NewWide(WideConfig{Ports: n, WordBits: 16, Cells: 8, CutThroughCrossbar: true}))},
		{"prizma", true, must[*prizma.Switch](t)(NewPrizma(PrizmaConfig{Ports: n, Banks: 4, CellsPerBank: 2, WordBits: 16}))},
	}
}

// contractLedger checks an organization against the contract cycle by
// cycle, counting what went in and what came out.
type contractLedger struct {
	org                Organization
	offered, delivered int64
}

// newContractLedger installs the ledger's sink on org: every departure
// intact, on its cell's output and the cell as injected, counted, then
// scribbled over.
func newContractLedger(t testing.TB, org Organization) *contractLedger {
	l := &contractLedger{org: org}
	g := org.Geometry()
	org.SetDepartureSink(func(c *Cell, out int, _, _ int64, intact bool) {
		if !intact || out != c.Dst || !c.Equal(NewCell(c.Seq, c.Src, c.Dst, g.CellWords, g.WordBits)) {
			t.Fatalf("cycle %d: cell %d for output %d left on output %d, intact %v", org.Cycle(), c.Seq, c.Dst, out, intact)
		}
		l.delivered++
		scribble(c)
	})
	return l
}

// tick advances one cycle and checks the per-cycle obligation the sink
// cannot: offered == delivered + dropped + Resident().
func (l *contractLedger) tick(t testing.TB, heads []*Cell) {
	t.Helper()
	for _, h := range heads {
		if h != nil {
			l.offered++
		}
	}
	l.org.Tick(heads)
	dropped, resident := l.org.DroppedCells(), int64(l.org.Resident())
	if l.delivered+dropped+resident != l.offered {
		t.Fatalf("cycle %d: offered %d != delivered %d + dropped %d + resident %d",
			l.org.Cycle(), l.offered, l.delivered, dropped, resident)
	}
}

// drain ticks without arrivals until the organization is empty, which must
// happen within the bound its geometry promises.
func (l *contractLedger) drain(t testing.TB) {
	t.Helper()
	for bound := l.org.Geometry().DrainBound(); l.org.Resident() > 0; bound-- {
		if bound == 0 {
			t.Fatalf("%d cells still resident after the drain bound", l.org.Resident())
		}
		l.tick(t, nil)
	}
}

// TestOrganizationsConservePerTick: conservation is an invariant of every
// cycle of every organization, not a property of finished runs — under
// saturation (overruns, bank exhaustion) and a hot-spot.
func TestOrganizationsConservePerTick(t *testing.T) {
	const n, cycles = 4, 4000
	for _, tc := range []TrafficConfig{
		{Kind: Saturation, N: n, Seed: 3},
		{Kind: Hotspot, N: n, Load: 0.9, HotFrac: 0.5, Seed: 5},
	} {
		for _, row := range smallOrgs(t, n) {
			t.Run(fmt.Sprintf("%s/%v", row.name, tc.Kind), func(t *testing.T) {
				l := newContractLedger(t, row.org)
				g := row.org.Geometry()
				cs := must[*traffic.CellStream](t)(NewCellStream(tc, g.CellWords))
				heads := make([]int, n)
				hc := make([]*Cell, n)
				var seq uint64
				for c := 0; c < cycles; c++ {
					cs.Heads(heads)
					l.tick(t, headCells(heads, hc, &seq, g))
				}
				l.drain(t)
				if l.delivered == 0 || row.org.DroppedCells() == 0 {
					t.Fatalf("delivered %d, dropped %d: both paths must be exercised", l.delivered, row.org.DroppedCells())
				}
			})
		}
	}
}

// TestOrganizationsUtilizationAtMostOne: Run divides the busy words by
// every simulated link-cycle, drain tail included, so no run of any
// organization — however short — reports more than full links.
func TestOrganizationsUtilizationAtMostOne(t *testing.T) {
	const n = 8
	for _, cycles := range []int64{64, 200, 2000} {
		for _, row := range integrationOrgs(t, n) {
			k := row.org.Geometry().CellWords
			cs := must[*traffic.CellStream](t)(NewCellStream(TrafficConfig{Kind: Saturation, N: n, Seed: 1}, k))
			res, err := Run(row.org, cs, cycles)
			if err != nil {
				t.Fatalf("%s/%d: %v", row.name, cycles, err)
			}
			if res.Utilization <= 0 || res.Utilization > 1 {
				t.Errorf("%s/%d cycles: utilization %.4f outside (0, 1]", row.name, cycles, res.Utilization)
			}
		}
	}
}

// FuzzOrganizations decodes arbitrary legal head schedules — one byte per
// free link per cycle: the low bit starts a cell, the rest picks its
// destination; a link mid-cell consumes nothing — and feeds them to all
// four organizations through the contract. No panic, every departure
// intact, conservation after every Tick, and a drain that empties within
// the bound.
func FuzzOrganizations(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 1, 1, 1})
	f.Add([]byte("\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff\xff"))
	f.Add([]byte("\x03\x00\x00\x05\x00\x07\x00\x00\x01\x00\x00\x00\x03\x03\x03\x03\x00\x00\x09"))
	f.Fuzz(func(t *testing.T, sched []byte) {
		const n = 4
		if len(sched) > 4096 {
			sched = sched[:4096]
		}
		for _, row := range smallOrgs(t, n) {
			l := newContractLedger(t, row.org)
			g := row.org.Geometry()
			free := make([]int, n) // first cycle each link may start a cell
			hc := make([]*Cell, n)
			rest := sched
			for c := 0; len(rest) > 0; c++ {
				for i := range hc {
					hc[i] = nil
					if c < free[i] || len(rest) == 0 {
						continue
					}
					b := rest[0]
					rest = rest[1:]
					if b&1 == 1 {
						hc[i] = NewCell(uint64(c*n+i+1), i, int(b>>1)%n, g.CellWords, g.WordBits)
						free[i] = c + g.CellWords
					}
				}
				l.tick(t, hc)
			}
			l.drain(t)
		}
	})
}
