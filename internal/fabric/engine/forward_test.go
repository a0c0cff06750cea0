package engine

import (
	"reflect"
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/traffic"
)

// omega is the k-ary omega network on k^s terminals: a perfect shuffle
// ahead of every stage, destination-digit routing, most significant digit
// first. At k = 2, s = 7 it has 448 nodes, seven bitmap words, so two
// workers genuinely shard it.
type omega struct{ k, s, n int }

func (o omega) Stages() int                          { return o.s }
func (o omega) NodesAt(int) int                      { return o.n / o.k }
func (o omega) Radix() int                           { return o.k }
func (o omega) Terminals() int                       { return o.n }
func (o omega) shuffle(l int) (int, int)             { l = l*o.k%o.n + l/(o.n/o.k); return l / o.k, l % o.k }
func (o omega) Downstream(_, nd, out int) (int, int) { return o.shuffle(nd*o.k + out) }
func (o omega) InjectPoint(term int) (int, int)      { return o.shuffle(term) }
func (o omega) EjectTerminal(nd, out int) int        { return nd*o.k + out }
func (o omega) RouteDst(st, dst int) int {
	for i := st + 1; i < o.s; i++ {
		dst /= o.k
	}
	return dst % o.k
}

// poison scribbles over every idle cell of p and leaves the free list in
// the order it found it.
func poison(p *cell.Pool) int {
	idle := make([]*cell.Cell, p.Len())
	for i := len(idle) - 1; i >= 0; i-- {
		idle[i] = p.Get()
	}
	for _, c := range idle {
		c.Seq, c.Src, c.Dst = ^uint64(0), -1, -1
		for w := range c.Words {
			c.Words[w] = ^c.Words[w]
		}
		p.Put(c)
	}
	return len(idle)
}

// TestForwardedCellsAreTheEngines is the ownership test for hop-cell
// forwarding: a cell travels the whole net as one object and returns to the
// inject pool only at ejection or drop, so an idle pooled cell must be
// referenced by nothing that still reads it. Scribbling over every idle cell
// after each Step must change nothing: delivered, drops, mean latency and
// credit state equal the unpoisoned run, at saturation and with interior
// drops, at one and two workers. Run it under -race too.
func TestForwardedCellsAreTheEngines(t *testing.T) {
	run := func(cfg Config, poisoned bool) (*Engine, int) {
		t.Helper()
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 36, N: e.Terminals()}, e.CellWords())
		if err != nil {
			t.Fatal(err)
		}
		scribbled := 0
		for cyc := 0; cyc < 600; cyc++ {
			if err := e.Drive(cs, 1); err != nil {
				t.Fatalf("cycle %d: %v", cyc, err)
			}
			if poisoned {
				scribbled += poison(e.injPool)
			}
		}
		if e.Corrupt() != 0 {
			t.Fatalf("%d corrupt cells", e.Corrupt())
		}
		if err := e.Audit(); err != nil {
			t.Fatal(err)
		}
		return e, scribbled
	}
	for _, tc := range []struct {
		name          string
		credits       int
		interiorDrops bool
	}{
		{"saturated", 4, false},
		{"interior-drops", 0, true},
	} {
		for _, workers := range []int{1, 2} {
			cfg := Config{Topo: omega{k: 2, s: 7, n: 128}, WordBits: 16, SwitchCells: 8,
				Credits: tc.credits, CutThrough: true, Workers: workers}
			ref, _ := run(cfg, false)
			got, scribbled := run(cfg, true)
			if scribbled == 0 {
				t.Fatalf("%s workers=%d: the pool never held an idle cell to poison", tc.name, workers)
			}
			if tc.interiorDrops != (ref.InteriorDrops() > 0) {
				t.Fatalf("%s workers=%d: %d interior drops", tc.name, workers, ref.InteriorDrops())
			}
			if got.Delivered() != ref.Delivered() || got.Drops() != ref.Drops() ||
				got.Latency().Mean() != ref.Latency().Mean() ||
				!reflect.DeepEqual(got.CreditState(), ref.CreditState()) {
				t.Fatalf("%s workers=%d: poisoned run delivered %d dropped %d mean %v, unpoisoned %d, %d, %v (credits equal: %v)",
					tc.name, workers, got.Delivered(), got.Drops(), got.Latency().Mean(),
					ref.Delivered(), ref.Drops(), ref.Latency().Mean(),
					reflect.DeepEqual(got.CreditState(), ref.CreditState()))
			}
		}
	}
}
