package engine

import (
	"math/rand"
	"testing"
)

// TestFlightSlabVsMap drives the slab with a random take/lookup/release mix
// under increasing sequence numbers, as Inject issues them, and checks it
// against a map from handle to the sequence number holding it: a live
// handle resolves to its own record, and a released handle never again
// resolves for the cell that held it, whether its record sits on the free
// list or has been taken by a later flight.
func TestFlightSlabVsMap(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var s flightSlab
	live := map[int32]uint64{}
	var handles []int32
	type gone struct {
		h   int32
		seq uint64
	}
	var released []gone
	var seq uint64
	for op := 0; op < 200000; op++ {
		switch r := rng.Intn(10); {
		case r < 4: // take
			seq++
			h := s.take(seq)
			if _, dup := live[h]; dup {
				t.Fatalf("op %d: handle %d handed out twice", op, h)
			}
			s.recs[h].src = int32(seq % 997)
			live[h] = seq
			handles = append(handles, h)
		case r < 6: // resolve a live handle
			if len(handles) == 0 {
				continue
			}
			h := handles[rng.Intn(len(handles))]
			if fl := &s.recs[h]; fl.seq != live[h] || fl.src != int32(live[h]%997) {
				t.Fatalf("op %d: handle %d resolves to seq %d, want %d", op, h, fl.seq, live[h])
			}
		case r < 8: // a released handle never resolves for its old cell
			if len(released) == 0 {
				continue
			}
			g := released[rng.Intn(len(released))]
			if s.recs[g.h].seq == g.seq {
				t.Fatalf("op %d: released handle %d still resolves for seq %d", op, g.h, g.seq)
			}
		default: // release
			if len(handles) == 0 {
				continue
			}
			i := rng.Intn(len(handles))
			h := handles[i]
			handles[i] = handles[len(handles)-1]
			handles = handles[:len(handles)-1]
			released = append(released, gone{h, live[h]})
			delete(live, h)
			s.release(h)
		}
		if s.n != len(live) {
			t.Fatalf("op %d: slab counts %d live, reference %d", op, s.n, len(live))
		}
		if len(s.recs) != s.n+len(s.free) {
			t.Fatalf("op %d: %d records, but %d live and %d free", op, len(s.recs), s.n, len(s.free))
		}
	}
	for h, seq := range live {
		if s.recs[h].seq != seq {
			t.Fatalf("final: handle %d lost seq %d", h, seq)
		}
	}
}

// TestFlightSlabReuse crosses several growth steps with every record
// reachable, then releases them all: the next takes reuse the freed
// records and grow nothing.
func TestFlightSlabReuse(t *testing.T) {
	var s flightSlab
	const n = 5000
	hs := make([]int32, n)
	for i := range hs {
		hs[i] = s.take(uint64(i + 1))
		s.recs[hs[i]].dst = int32(i)
	}
	for i, h := range hs {
		if fl := &s.recs[h]; fl.seq != uint64(i+1) || fl.dst != int32(i) {
			t.Fatalf("handle %d after growth = %+v", h, *fl)
		}
	}
	for _, h := range hs {
		s.release(h)
	}
	if s.n != 0 {
		t.Fatalf("%d records live after releasing all", s.n)
	}
	size := len(s.recs)
	for i := 0; i < n; i++ {
		s.take(uint64(n + i + 1))
	}
	if len(s.recs) != size || len(s.free) != 0 {
		t.Fatalf("slab grew from %d to %d records with %d free ones to reuse", size, len(s.recs), n)
	}
}
