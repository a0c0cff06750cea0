package fabric

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"pipemem/internal/clos"
	"pipemem/internal/fabric/engine"
	"pipemem/internal/obs"
	"pipemem/internal/stats"
	"pipemem/internal/traffic"
)

// pinNet is what the butterfly and the Clos net share, as far as the
// table below drives them.
type pinNet interface {
	Inject(term, dst int, seq uint64)
	Step() error
	Close()
	Audit() error
	CellWords() int
	SetFlightTrace(tr *obs.Tracer, sample int) error
	Engine() *engine.Engine
}

// netRows are the nets every cross-topology test walks: both butterfly
// shapes the ledger and the docs use, the Clos with a partly and a fully
// populated middle stage, and one net of each kind wide enough (more than
// 64 nodes, so more than one word of the occupancy bitmaps) that a worker count above one really shards it.
var netRows = []struct {
	name              string
	terminals, stages int
	build             func(workers int) (pinNet, error)
	// digest pins the workers=1 run (see observe), so that a change to the
	// injection order, the Clos middle selection or the merge order shows
	// up as a moved constant and not only as workers disagreeing.
	digest string
}{
	{"butterfly-64-r4", 64, 3, butterfly(64, 4), "4dd8d0b33460eb70"},
	{"butterfly-64-r8", 64, 2, butterfly(64, 8), "e4d62121f380eaa3"},
	{"clos-r4-m3", 16, 3, closNet(4, 3), "828d19bc2139dd10"},
	{"clos-r4-m4", 16, 3, closNet(4, 4), "9f22eac113c1fe67"},
	{"butterfly-64-r2", 64, 6, butterfly(64, 2), "cd729bae831a839b"},
	{"clos-r24-m20", 576, 3, closNet(24, 20), "a47cb0cdd139b741"},
}

func butterfly(terminals, radix int) func(int) (pinNet, error) {
	return func(workers int) (pinNet, error) {
		return New(Config{Terminals: terminals, Radix: radix, WordBits: 16,
			SwitchCells: 16, Credits: 4, CutThrough: true, Workers: workers})
	}
}

func closNet(radix, middles int) func(int) (pinNet, error) {
	return func(workers int) (pinNet, error) {
		return clos.New(clos.Config{Radix: radix, Middles: middles, WordBits: 16,
			SwitchCells: 16, Credits: 4, CutThrough: true, Workers: workers})
	}
}

// observed is everything a run shows from outside.
type observed struct {
	injected, delivered, dropped int64
	latency                      stats.HistState
	credits                      []int32
	arrivals                     [][]int64 // per stage; [1] is the Clos MiddleLoad
	trace                        string    // SHA-256 of the flight-span JSONL
}

func (o observed) digest() string {
	sum := sha256.Sum256([]byte(fmt.Sprint(o)))
	return fmt.Sprintf("%x", sum[:8])
}

// observe drives f at saturation with every third flight traced, until
// pools, rings and staging buffers are warm and then for the cycles of the
// allocation count: a warm cycle must allocate nothing, span records
// included (the sink hashes what it is given, so it does not grow).
func observe(t *testing.T, f pinNet, terminals, stages int) observed {
	t.Helper()
	spans := sha256.New()
	tr := obs.NewTracer(obs.NewJSONLSink(spans), 0, 1)
	if err := f.SetFlightTrace(tr, 3); err != nil {
		t.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 1717, N: terminals}, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	heads := make([]int, terminals)
	var seq uint64
	cycle := func() {
		cs.Heads(heads)
		for term, dst := range heads {
			if dst != traffic.NoArrival {
				seq++
				f.Inject(term, dst, seq)
			}
		}
		if err := f.Step(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2048; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(50, cycle); allocs != 0 {
		t.Errorf("%.1f allocs per warm cycle, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	e := f.Engine()
	o := observed{
		injected: e.Injected(), delivered: e.Delivered(), dropped: e.Dropped(),
		latency: e.Latency().State(), credits: e.CreditState(),
		trace: fmt.Sprintf("%x", spans.Sum(nil)),
	}
	for st := 0; st < stages; st++ {
		o.arrivals = append(o.arrivals, e.ArrivalsAt(st))
	}
	return o
}

// TestNetsAcrossWorkers is the determinism table for both topologies:
// each net gives the same totals, latency histogram, credit state,
// per-node arrival counts (the Clos middle load among them) and flight
// trace bytes at every worker count, equal to the pinned digest, and
// steps without allocating once warm.
func TestNetsAcrossWorkers(t *testing.T) {
	for _, row := range netRows {
		t.Run(row.name, func(t *testing.T) {
			var ref observed
			for _, workers := range []int{1, 2, 3, 8} {
				f, err := row.build(workers)
				if err != nil {
					t.Fatal(err)
				}
				o := observe(t, f, row.terminals, row.stages)
				f.Close()
				if workers > 1 {
					if !reflect.DeepEqual(o, ref) {
						t.Errorf("workers=%d diverged from workers=1:\n got %+v\nwant %+v", workers, o, ref)
					}
					continue
				}
				ref = o
				if o.delivered == 0 || o.dropped == 0 {
					t.Fatalf("vacuous run: delivered %d, dropped %d", o.delivered, o.dropped)
				}
				if got := o.digest(); got != row.digest {
					t.Errorf("digest %s, pinned %s", got, row.digest)
				}
			}
		})
	}
}
