package fabric

import (
	"crypto/sha256"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"pipemem/internal/clos"
	"pipemem/internal/obs"
	"pipemem/internal/stats"
	"pipemem/internal/traffic"
)

// netRows are the nets every cross-topology test walks: both butterfly
// shapes the ledger and the docs use, the Clos with a partly and a fully
// populated middle stage, and one net of each kind wide enough (more than
// 64 nodes, so more than one word of the occupancy bitmaps) that a worker count above one really shards it.
var netRows = []struct {
	name  string
	build func(workers int) (*Net, error)
	// digest pins the workers=1 run (see observe), so that a change to the
	// injection order, the Clos middle selection or the merge order shows
	// up as a moved constant and not only as workers disagreeing.
	digest string
}{
	{"butterfly-64-r4", butterfly(64, 4), "4dd8d0b33460eb70"},
	{"butterfly-64-r8", butterfly(64, 8), "e4d62121f380eaa3"},
	{"clos-r4-m3", closNet(4, 3), "828d19bc2139dd10"},
	{"clos-r4-m4", closNet(4, 4), "9f22eac113c1fe67"},
	{"butterfly-64-r2", butterfly(64, 2), "cd729bae831a839b"},
	{"clos-r24-m20", closNet(24, 20), "a47cb0cdd139b741"},
}

func butterfly(terminals, radix int) func(int) (*Net, error) {
	return func(workers int) (*Net, error) {
		return New(Config{Terminals: terminals, Radix: radix, WordBits: 16,
			SwitchCells: 16, Credits: 4, CutThrough: true, Workers: workers})
	}
}

func closNet(radix, middles int) func(int) (*Net, error) {
	return func(workers int) (*Net, error) {
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
func observe(t *testing.T, f *Net) observed {
	t.Helper()
	spans := sha256.New()
	tr := obs.NewTracer(obs.NewJSONLSink(spans), 0, 1)
	if err := f.SetFlightTrace(tr, 3); err != nil {
		t.Fatal(err)
	}
	cs, err := traffic.NewCellStream(traffic.Config{Kind: traffic.Saturation, Seed: 1717, N: f.Terminals()}, f.CellWords())
	if err != nil {
		t.Fatal(err)
	}
	drive := func(n int64) {
		if err := f.Drive(cs, n); err != nil {
			t.Fatal(err)
		}
	}
	drive(2048)
	if allocs := testing.AllocsPerRun(50, func() { drive(1) }); allocs != 0 {
		t.Errorf("%.1f allocs per warm cycle, want 0", allocs)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Audit(); err != nil {
		t.Fatal(err)
	}
	o := observed{
		injected: f.Injected(), delivered: f.Delivered(), dropped: f.Drops(),
		latency: f.Latency().State(), credits: f.CreditState(),
		trace: fmt.Sprintf("%x", spans.Sum(nil)),
	}
	for st := 0; st < f.Stages(); st++ {
		o.arrivals = append(o.arrivals, f.ArrivalsAt(st))
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
				o := observe(t, f)
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

// allocated returns the bytes fn allocated.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestNetSizeBounded: a request too large to index is an error, from
// Validate and from New, before anything is allocated for it — not a hang,
// a count that wrapped, or an out-of-memory death.
func TestNetSizeBounded(t *testing.T) {
	for name, build := range map[string]func() (*Net, error){
		// n *= k wrapped to 0 on the way up, and the stage count never ended.
		"butterfly-maxint64-terminals": func() (*Net, error) {
			return New(Config{Terminals: math.MaxInt64, Radix: 2, SwitchCells: 32})
		},
		// A true power of the radix: only the engine's bound refuses it.
		"butterfly-2^62-terminals": func() (*Net, error) {
			return New(Config{Terminals: 1 << 62, Radix: 2, SwitchCells: 32})
		},
		// 30 stages of 2^29 nodes: every count fits int32, node·radix+port does not.
		"butterfly-2^30-terminals": func() (*Net, error) {
			return New(Config{Terminals: 1 << 30, Radix: 2, SwitchCells: 32})
		},
		// Died with "fatal error: runtime: out of memory".
		"clos-radix-2^32": func() (*Net, error) {
			return clos.New(clos.Config{Radix: 1 << 32, SwitchCells: 32})
		},
		// Stored as an int32 allowance of -2^31.
		"credits-2^31": func() (*Net, error) {
			return New(Config{Terminals: 16, Radix: 2, SwitchCells: 32, Credits: 1 << 31})
		},
	} {
		var err error
		if got := allocated(func() { _, err = build() }); err == nil || got > 1<<20 {
			t.Errorf("%s: err = %v after allocating %d bytes, want an error within 1 MiB", name, err, got)
		}
	}
}

// FuzzNetConfig builds nets from arbitrary sizes, cell counts, credits,
// worker counts and policy specs. A butterfly's Terminals is radix^stages
// + extra, so that the fuzzer finds the buildable sizes (extra = 0) as
// easily as the rest; a Clos takes extra as its Middles. Whatever the
// request, Validate returns; New returns an error when Validate does, and
// without allocating for the net; and a net that builds survives four cell
// times of saturation and passes Audit. Only a net this harness prices
// under 32 MiB is built (a valid request can describe a net larger than
// the host), and building it must stay under twice that.
func FuzzNetConfig(f *testing.F) {
	f.Add(false, int64(8), uint8(2), int64(0), int64(32), int64(4), int64(1), "")
	f.Add(false, int64(3), uint8(3), int64(0), int64(9), int64(0), int64(0), "static:quota=1")
	f.Add(true, int64(4), uint8(0), int64(3), int64(16), int64(2), int64(2), "dt:alpha=0.5")
	f.Add(false, int64(2), uint8(1), int64(math.MaxInt64-2), int64(32), int64(0), int64(0), "")
	f.Add(false, int64(2), uint8(62), int64(0), int64(32), int64(0), int64(0), "")
	f.Add(true, int64(1)<<32, uint8(0), int64(0), int64(32), int64(1)<<31, int64(-1), "nonsense:key=val")
	f.Fuzz(func(t *testing.T, isClos bool, radix int64, stages uint8, extra, cells, credits, workers int64, policy string) {
		var (
			validate func() error
			build    func() (*Net, error)
			nodes    int64
		)
		if isClos {
			cfg := clos.Config{Radix: int(radix), Middles: int(extra), WordBits: 16, SwitchCells: int(cells),
				Credits: int(credits), CutThrough: true, Policy: policy, Workers: int(workers)}
			validate, build = cfg.Validate, func() (*Net, error) { return clos.New(cfg) }
			nodes = 3 * radix
		} else {
			terminals := extra
			for p, i := int64(1), 0; i <= int(stages); p, i = p*radix, i+1 {
				terminals = p + extra // wraps for a large radix or many stages: one more arbitrary size
			}
			cfg := Config{Terminals: int(terminals), Radix: int(radix), WordBits: 16, SwitchCells: int(cells),
				Credits: int(credits), CutThrough: true, Policy: policy, Workers: int(workers)}
			validate, build = cfg.Validate, func() (*Net, error) { return New(cfg) }
			nodes = int64(stages) * terminals / max(radix, 1)
		}
		// The price bounds New's allocation from above: measured, 48 KiB a
		// node and 70 bytes per port × (cell + port).
		const budget = 32 << 20
		invalid := validate() != nil
		if !invalid && (nodes > 512 || radix > 64 || cells > 1<<16 ||
			nodes*(1<<16+128*radix*(cells+radix)) > budget) {
			t.Skip("a valid net, larger than this harness builds")
		}
		var (
			net *Net
			err error
		)
		limit := uint64(2 * budget)
		if invalid {
			limit = 1 << 20
		}
		if got := allocated(func() { net, err = build() }); got > limit {
			t.Fatalf("New allocated %d bytes (invalid=%v), bound %d", got, invalid, limit)
		}
		if invalid != (err != nil) {
			t.Fatalf("Validate says invalid=%v, New returned %v", invalid, err)
		}
		if err != nil {
			return
		}
		defer net.Close()
		if _, err := net.Run(traffic.Config{Kind: traffic.Saturation, Seed: 1}, 0, int64(4*net.CellWords())); err != nil {
			t.Fatal(err)
		}
		if err := net.Audit(); err != nil {
			t.Fatal(err)
		}
	})
}
