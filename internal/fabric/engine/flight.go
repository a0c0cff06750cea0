package engine

// flight is the engine's per-cell bookkeeping while a cell crosses the
// fabric: the identity needed to route it and to regenerate its payload
// for the ejection check (src, dst — cell payloads are a pure function of
// (seq, src, dst), see cell.Fill), the injection cycle for end-to-end
// latency, and the credit slot of the link the cell most recently entered
// a stage through. seq is the cell's sequence number while the record is
// live and 0 while it is free.
type flight struct {
	seq     uint64
	inject  int64
	src     int32
	dst     int32
	inbound int32 // packed (node, port) credit slot of the inbound link
	// Flight-observation fields, maintained only when the engine's
	// flightObs gate is on: the occupancy the head found at its current
	// node, and whether this flight was sampled into the span trace. The
	// cycle the head arrived there is the switch's own admission stamp.
	depth  int32
	traced bool
}

// flightSlab holds the flight records of the cells in the fabric. A
// record's handle is its index, which Inject stamps into the cell's Tag, so
// a hook reaches the flight of the cell in hand with one index. Released
// records go on a free list, so the steady state — a constant in-flight
// population — allocates nothing. A released record's seq is zeroed and a
// reused one takes a larger sequence number (Inject refuses any other), so
// a handle never resolves for a cell that no longer holds it: readers
// check fl.seq == c.Seq.
type flightSlab struct {
	recs []flight
	free []int32
	n    int // live records
}

// take claims a record for seq and returns its handle.
func (s *flightSlab) take(seq uint64) int32 {
	var h int32
	if n := len(s.free); n > 0 {
		h = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		h = int32(len(s.recs))
		s.recs = append(s.recs, flight{})
	}
	s.recs[h] = flight{seq: seq}
	s.n++
	return h
}

// release frees the record h names.
func (s *flightSlab) release(h int32) {
	s.recs[h].seq = 0
	s.free = append(s.free, h)
	s.n--
}
