package engine

import "fmt"

// flight is the engine's per-cell bookkeeping while a cell crosses the
// fabric: the identity needed to route it and to regenerate its payload
// for the ejection check (src, dst — cell payloads are a pure function of
// (seq, src, dst), see cell.Fill), the injection cycle for end-to-end
// latency, and the credit
// slot of the link the cell most recently entered a stage through.
type flight struct {
	seq     uint64
	src     int32
	dst     int32
	inbound int32 // packed (node, port) credit slot of the inbound link
	inject  int64
	// Flight-observation fields, maintained only when the engine's
	// flightObs gate is on: the cycle the head arrived at its current
	// node, the occupancy it found there, and whether this flight was
	// sampled into the span trace.
	hopStart int64
	depth    int32
	traced   bool
}

// flightTable maps in-flight sequence numbers to pooled *flight records
// with open addressing (linear probing, backward-shift deletion), so the
// fabric hot loop never touches a Go map: lookups are a multiply and a
// short probe, and the steady state — constant in-flight population —
// allocates nothing. Key 0 marks an empty slot, so sequence number 0 is
// reserved (Inject rejects it).
type flightTable struct {
	keys []uint64
	vals []*flight
	n    int
	free []*flight
}

const flightMinSlots = 64

func newFlightTable() *flightTable {
	return &flightTable{
		keys: make([]uint64, flightMinSlots),
		vals: make([]*flight, flightMinSlots),
	}
}

// home returns the preferred slot for a key (Fibonacci hashing: the
// sequence numbers arrive consecutively, so spread them multiplicatively
// before masking).
func (t *flightTable) home(seq uint64) int {
	return int((seq * 0x9e3779b97f4a7c15) & uint64(len(t.keys)-1))
}

// get returns the flight for seq, or nil.
func (t *flightTable) get(seq uint64) *flight {
	mask := len(t.keys) - 1
	for i := t.home(seq); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case seq:
			return t.vals[i]
		case 0:
			return nil
		}
	}
}

// insert allocates (or recycles) a flight record for seq and returns it.
// A duplicate or zero seq is an error: the fabric's integrity checks key
// on sequence numbers, so a collision would mis-attribute departures.
func (t *flightTable) insert(seq uint64) (*flight, error) {
	if seq == 0 {
		return nil, fmt.Errorf("sequence number 0 is reserved")
	}
	if 4*(t.n+1) > 3*len(t.keys) {
		t.grow()
	}
	mask := len(t.keys) - 1
	for i := t.home(seq); ; i = (i + 1) & mask {
		switch t.keys[i] {
		case seq:
			return nil, fmt.Errorf("duplicate in-flight sequence number %d", seq)
		case 0:
			fl := t.take()
			fl.seq = seq
			t.keys[i], t.vals[i] = seq, fl
			t.n++
			return fl, nil
		}
	}
}

// remove deletes seq and recycles its record, reporting whether it was
// present. Linear probing demands backward-shift deletion: every entry in
// the probe run after the freed slot that could legally live at (or
// before) it moves back, so later lookups never hit a false empty slot.
func (t *flightTable) remove(seq uint64) bool {
	mask := len(t.keys) - 1
	i := t.home(seq)
	for t.keys[i] != seq {
		if t.keys[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	t.free = append(t.free, t.vals[i])
	t.n--
	j := i
	for {
		j = (j + 1) & mask
		if t.keys[j] == 0 {
			break
		}
		h := t.home(t.keys[j])
		// Move keys[j] into the hole at i unless its home lies strictly
		// inside the cyclic interval (i, j] — then it is already as close
		// to home as it can get.
		if (j > i && h > i && h <= j) || (j < i && (h > i || h <= j)) {
			continue
		}
		t.keys[i], t.vals[i] = t.keys[j], t.vals[j]
		i = j
	}
	t.keys[i], t.vals[i] = 0, nil
	return true
}

// take pops a recycled record or allocates a fresh one.
func (t *flightTable) take() *flight {
	if n := len(t.free); n > 0 {
		fl := t.free[n-1]
		t.free[n-1] = nil
		t.free = t.free[:n-1]
		*fl = flight{}
		return fl
	}
	return &flight{}
}

// grow doubles the table and reinserts every live entry.
func (t *flightTable) grow() {
	oldK, oldV := t.keys, t.vals
	t.keys = make([]uint64, 2*len(oldK))
	t.vals = make([]*flight, 2*len(oldV))
	mask := len(t.keys) - 1
	for i, k := range oldK {
		if k == 0 {
			continue
		}
		for j := t.home(k); ; j = (j + 1) & mask {
			if t.keys[j] == 0 {
				t.keys[j], t.vals[j] = k, oldV[i]
				break
			}
		}
	}
}
