package pipemem

// Golden pins for the three memory organizations that are not core.Switch
// — the §3.5 half-quantum pair, the fig. 3 wide memory (bypass crossbar on
// and off) and PRIZMA (64×1 and 16×4 banks) — so that moving their
// departure type, result type and run driver cannot move a departure or a
// reported number unnoticed.

import (
	"fmt"
	"hash/fnv"
	"math"
	"testing"
)

// goldenRun is what the run drivers report, reduced to what the three
// result types have in common. utilCycles is the denominator the driver
// normalized Utilization by, so busy words = util × utilCycles × n.
type goldenRun struct {
	cycles, offered, delivered, dropped int64
	meanLat                             float64
	minLat                              int64
	util                                float64
	utilCycles                          int64
}

// goldenOrg is one built organization: hand-driven through tick and drain
// for the per-departure digest, or handed to its run driver.
type goldenOrg struct {
	tick       func([]*Cell)
	drain      func() []Departure
	run        func(cs *CellStream, cycles int64) (goldenRun, error)
	cutthrough func() int64
}

func goldenDual(ct bool) func() (goldenOrg, error) {
	return func() (goldenOrg, error) {
		d, err := NewDual(Config{Ports: 8, WordBits: 16, Cells: 32, CutThrough: ct})
		if err != nil {
			return goldenOrg{}, err
		}
		return goldenOrg{
			tick: d.Tick, drain: d.Drain,
			run: func(cs *CellStream, cycles int64) (goldenRun, error) {
				r, err := RunDualTraffic(d, cs, cycles)
				return goldenRun{r.Cycles, r.Offered, r.Delivered, r.Dropped,
					r.MeanCutLatency, r.MinCutLatency, r.Utilization, r.Cycles}, err
			},
			cutthrough: func() int64 { return 0 },
		}, nil
	}
}

func goldenWide(crossbar bool) func() (goldenOrg, error) {
	return func() (goldenOrg, error) {
		s, err := NewWide(WideConfig{Ports: 8, WordBits: 16, Cells: 64, CutThroughCrossbar: crossbar})
		if err != nil {
			return goldenOrg{}, err
		}
		return goldenOrg{
			tick: s.Tick,
			drain: func() []Departure {
				var out []Departure
				for _, d := range s.Drain() {
					out = append(out, Departure{Cell: d.Cell, Expected: d.Expected, Output: d.Output,
						HeadIn: d.HeadIn, HeadOut: d.HeadOut, TailOut: d.TailOut})
				}
				return out
			},
			run: func(cs *CellStream, cycles int64) (goldenRun, error) {
				r, err := RunWideTraffic(s, cs, cycles)
				return goldenRun{r.Cycles, r.Offered, r.Delivered, r.Dropped,
					r.MeanCutLatency, r.MinCutLatency, r.Utilization, cycles}, err
			},
			cutthrough: func() int64 { return s.Counters().Get("cutthrough") },
		}, nil
	}
}

func goldenPrizma(banks, depth int) func() (goldenOrg, error) {
	return func() (goldenOrg, error) {
		s, err := NewPrizma(PrizmaConfig{Ports: 8, Banks: banks, CellsPerBank: depth, WordBits: 16})
		if err != nil {
			return goldenOrg{}, err
		}
		return goldenOrg{
			tick: s.Tick,
			drain: func() []Departure {
				var out []Departure
				for _, d := range s.Drain() {
					out = append(out, Departure{Cell: d.Cell, Expected: d.Expected, Output: d.Output,
						HeadIn: d.HeadIn, HeadOut: d.HeadOut, TailOut: d.TailOut})
				}
				return out
			},
			run: func(cs *CellStream, cycles int64) (goldenRun, error) {
				r, err := RunPrizmaTraffic(s, cs, cycles)
				return goldenRun{r.Cycles, r.Offered, r.Delivered, r.Dropped,
					r.MeanLatency, r.MinLatency, r.Utilization, cycles}, err
			},
			cutthrough: func() int64 { return 0 },
		}, nil
	}
}

// orgPin is one golden row: the FNV-1a digest over every departure of a
// hand-driven run in completion order (sequence number, output, head-in,
// head-out, tail-out) with the departure count beside it so a digest
// cannot match vacuously, and what the run driver reports for the same
// traffic.
type orgPin struct {
	digest                              uint64
	deps                                int
	cycles, offered, delivered, dropped int64
	meanLat                             string // %.4f
	minLat, cutthrough, busyWords       int64
}

// TestOrganizationsGolden pins dual, wide and PRIZMA at n = 8 with 64 cells
// of buffer under permutation, Bernoulli 0.8 and saturation traffic.
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
		k     int
		build func() (goldenOrg, error)
	}{
		{"dual/ct", n, goldenDual(true)},
		{"dual/sf", n, goldenDual(false)},
		{"wide/crossbar", 2 * n, goldenWide(true)},
		{"wide/sf", 2 * n, goldenWide(false)},
		{"prizma/64x1", 2 * n, goldenPrizma(64, 1)},
		{"prizma/16x4", 2 * n, goldenPrizma(16, 4)},
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
				org, err := o.build()
				if err != nil {
					t.Fatal(err)
				}
				cs, err := NewCellStream(kind.tc, o.k)
				if err != nil {
					t.Fatal(err)
				}
				h := fnv.New64a()
				heads := make([]int, n)
				hc := make([]*Cell, n)
				var seq uint64
				for c := 0; c < cycles+8*o.k*64; c++ {
					var in []*Cell
					if c < cycles {
						cs.Heads(heads)
						for i := range hc {
							hc[i] = nil
							if heads[i] != NoArrival {
								seq++
								hc[i] = NewCell(seq, i, heads[i], o.k, 16)
							}
						}
						in = hc
					}
					org.tick(in)
					for _, d := range org.drain() {
						if !d.Cell.Equal(d.Expected) {
							t.Fatalf("cycle %d: cell %d corrupted on output %d", c, d.Expected.Seq, d.Output)
						}
						fmt.Fprintf(h, "seq=%d out=%d in=%d headout=%d tailout=%d\n",
							d.Expected.Seq, d.Output, d.HeadIn, d.HeadOut, d.TailOut)
						got.deps++
					}
				}
				got.digest = h.Sum64()

				// Through the run driver, on a fresh instance and stream.
				if org, err = o.build(); err != nil {
					t.Fatal(err)
				}
				if cs, err = NewCellStream(kind.tc, o.k); err != nil {
					t.Fatal(err)
				}
				r, err := org.run(cs, cycles)
				if err != nil {
					t.Fatal(err)
				}
				got.cycles, got.offered, got.delivered, got.dropped = r.cycles, r.offered, r.delivered, r.dropped
				got.meanLat, got.minLat = fmt.Sprintf("%.4f", r.meanLat), r.minLat
				got.cutthrough = org.cutthrough()
				got.busyWords = int64(math.Round(r.util * float64(r.utilCycles*n)))
				if got.busyWords != r.delivered*int64(o.k) {
					t.Errorf("busy words %d, but %d cells of %d words were delivered", got.busyWords, r.delivered, o.k)
				}
				if int64(got.deps) != r.delivered {
					t.Errorf("hand-driven run delivered %d cells, the driver %d", got.deps, r.delivered)
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
