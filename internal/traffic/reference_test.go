package traffic

import (
	"fmt"
	"math/rand/v2"
)

// refStream is the per-cycle CellStream as it stood before the stream got
// its horizon, frozen: one rand.Rand Float64 per idle link per cycle, the
// start probability recomputed in place, no lookahead. It is the reference
// the differential tests drive beside the live stream — heads and State
// bytes must agree at every cycle — and is not to be optimized.
type refStream struct {
	cfg     Config
	cellLen int
	// pcg is the concrete source behind rng, retained because rand.Rand
	// does not expose its source and checkpointing needs the PCG's
	// MarshalBinary/UnmarshalBinary.
	pcg *rand.PCG
	rng *rand.Rand
	// now is the index of the next Heads call; freeAt[i] is the first call
	// index at which input i's link is no longer mid-cell (a head may
	// appear only at now ≥ freeAt[i]). The absolute form replaces the old
	// per-cycle busy countdown: nothing is decremented on mid-cell links,
	// and minFree — the smallest freeAt across inputs — lets a cycle in
	// which every link is mid-cell return without touching any port (the
	// common case for full-rate lockstep streams).
	now     int64
	freeAt  []int64
	minFree int64
	// per-input cell counter (Permutation only); rot[i] caches
	// (i + sent[i]) mod N — the next permutation destination — so the
	// full-rate path advances it with a wrap test instead of dividing
	// every cell start. Derived state: rebuilt on restore, not exported.
	sent []int64
	rot  []int
	// burst state per input (Bursty only): cells remaining in the current
	// burst beyond the one in transit, and the burst's common destination.
	burstLeft []int
	burstDst  []int
}

// newRefStream builds a word-granularity stream of cells of cellLen words.
func newRefStream(cfg Config, cellLen int) (*refStream, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cellLen < 1 {
		return nil, fmt.Errorf("traffic: cell length %d, need ≥ 1", cellLen)
	}
	if cfg.Kind == Permutation && cfg.Load == 0 {
		cfg.Load = 1
	}
	pcg := rand.NewPCG(cfg.Seed, 0xbf58476d1ce4e5b9)
	s := &refStream{
		cfg:     cfg,
		cellLen: cellLen,
		pcg:     pcg,
		rng:     rand.New(pcg),
		freeAt:  make([]int64, cfg.N),
		sent:    make([]int64, cfg.N),
	}
	if cfg.Kind == Bursty {
		s.burstLeft = make([]int, cfg.N)
		s.burstDst = make([]int, cfg.N)
	}
	if cfg.Kind == Permutation {
		s.rot = make([]int, cfg.N)
		for i := range s.rot {
			s.rot[i] = i % cfg.N
		}
	}
	return s, nil
}

// rotAdv advances input i's cached permutation destination by one,
// mirroring sent[i]++ in (i + sent[i]) mod N.
func (s *refStream) rotAdv(i int) {
	if r := s.rot[i] + 1; r == s.cfg.N {
		s.rot[i] = 0
	} else {
		s.rot[i] = r
	}
}

// Heads fills dst (length N) with the destinations of cell heads appearing
// in this cycle (NoArrival where no head appears) and returns the number of
// heads. A head can appear only on a link that is not mid-cell.
func (s *refStream) Heads(dst []int) int {
	if len(dst) != s.cfg.N {
		panic("traffic: destination slice has wrong length")
	}
	now := s.now
	s.now++
	if s.minFree > now {
		// Every link is mid-cell: no head can appear anywhere this cycle,
		// and no per-port state needs touching (the busy intervals are
		// absolute). One compare replaces the N-port scan.
		for i := range dst {
			dst[i] = NoArrival
		}
		return 0
	}
	n := 0
	for i := range dst {
		dst[i] = NoArrival
		if s.freeAt[i] > now {
			continue
		}
		start := false
		perm := false
		switch s.cfg.Kind {
		case Trace:
			// One schedule slot per cell time and per input: an entry
			// either starts a cell or leaves the link idle for a full
			// cell time (with K = 1, one row per slot).
			if slot := int(s.sent[i]); slot < len(s.cfg.Schedule) {
				s.sent[i]++
				s.freeAt[i] = now + int64(s.cellLen)
				if d := s.cfg.Schedule[slot][i]; d != NoArrival {
					dst[i] = d
					n++
				}
			}
			continue
		case Saturation:
			start = true
		case Permutation:
			// At full rate all inputs run in cell-time lockstep: input i's
			// t-th cell targets (i+t) mod n, a fresh permutation per cell
			// time — admissible traffic that never oversubscribes an
			// output. Below full rate, cells are thinned with the same
			// idle-gap start probability as Bernoulli streams so the link
			// utilization equals Load.
			perm = true
			if s.cfg.Load >= 1 {
				start = true
			} else {
				p, k := s.cfg.Load, float64(s.cellLen)
				start = s.rng.Float64() < p/(k*(1-p)+p)
			}
			if !start {
				s.sent[i]++ // the rotation advances even for skipped cells
				s.rotAdv(i)
			}
		case Bernoulli, Hotspot:
			// Start probability on an idle cycle such that utilization
			// is Load: q = p / (K·(1-p) + p)… for word-serial links the
			// busy period is K cycles, so q = p/(K(1-p)+p); p = 1 gives
			// q = 1 (back-to-back). Hotspot differs only in destination
			// choice below.
			p, k := s.cfg.Load, float64(s.cellLen)
			q := p / (k*(1-p) + p)
			start = s.rng.Float64() < q
		case Bursty:
			// Mid-burst: the next cell follows back-to-back on the same
			// destination, so a burst occupies BurstLen·K contiguous
			// cycles on average.
			if s.burstLeft[i] > 0 {
				s.burstLeft[i]--
				dst[i] = s.burstDst[i]
				s.freeAt[i] = now + int64(s.cellLen)
				n++
				continue
			}
			// Idle: start a burst with the probability that makes the
			// long-run busy fraction Load — the Bernoulli construction
			// with the busy period scaled to the mean burst.
			p, bk := s.cfg.Load, s.cfg.BurstLen*float64(s.cellLen)
			q := p / (bk*(1-p) + p)
			if p >= 1 {
				q = 1
			}
			if s.rng.Float64() < q {
				// Geometric burst length with mean BurstLen (support ≥ 1);
				// this cycle starts the burst's first cell.
				l := 1
				pb := 1 / s.cfg.BurstLen
				for s.rng.Float64() >= pb {
					l++
				}
				s.burstDst[i] = s.rng.IntN(s.cfg.N)
				s.burstLeft[i] = l - 1
				dst[i] = s.burstDst[i]
				s.freeAt[i] = now + int64(s.cellLen)
				n++
			}
			continue
		}
		if start {
			switch {
			case perm:
				dst[i] = s.rot[i]
				s.sent[i]++
				s.rotAdv(i)
			case s.cfg.Kind == Hotspot && s.rng.Float64() < s.cfg.HotFrac:
				dst[i] = s.cfg.HotPort
			default:
				dst[i] = s.rng.IntN(s.cfg.N)
			}
			s.freeAt[i] = now + int64(s.cellLen)
			n++
		}
	}
	m := s.freeAt[0]
	for _, f := range s.freeAt[1:] {
		if f < m {
			m = f
		}
	}
	s.minFree = m
	return n
}

// State exports the stream for checkpointing. The serialized Busy field
// keeps its original per-input countdown form (remaining mid-cell cycles),
// derived from the absolute busy intervals the stream now tracks, so
// checkpoint files stay compatible across the representation change.
func (s *refStream) State() (*StreamState, error) {
	rngState, err := s.pcg.MarshalBinary()
	if err != nil {
		return nil, fmt.Errorf("traffic: marshal PCG: %w", err)
	}
	busy := make([]int, s.cfg.N)
	for i, f := range s.freeAt {
		if rem := f - s.now; rem > 0 {
			busy[i] = int(rem)
		}
	}
	st := &StreamState{
		RNG:  rngState,
		Busy: busy,
		Sent: append([]int64(nil), s.sent...),
	}
	if s.burstLeft != nil {
		st.BurstLeft = append([]int(nil), s.burstLeft...)
		st.BurstDst = append([]int(nil), s.burstDst...)
	}
	return st, nil
}
