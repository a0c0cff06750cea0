// Package arb implements the arbitration circuits of the switch models.
//
// Two levels exist, mirroring the paper's discussion:
//
//   - Arbiter: a single-resource arbiter that picks one requester per
//     cycle. The pipelined memory needs exactly one of these (§3.3): each
//     cycle it selects which read or write wave to initiate at stage M0.
//   - Matcher: an input-to-output matching scheduler, the "quite complex
//     scheduler" (§5.1) that non-FIFO input buffering requires because "the
//     scheduling of each output depends on the scheduling of the other
//     outputs" (§2.1). PIM and iSLIP follow [AOST93]; TwoDRR follows the
//     two-dimensional round-robin of [LaSe95].
package arb

import (
	"fmt"
	"math/bits"
	"math/rand/v2"
)

// None is returned by arbiters when no request is asserted.
const None = -1

// Arbiter selects one asserted request per invocation.
type Arbiter interface {
	// Pick returns the index of the granted requester, or None.
	Pick(requests []bool) int
}

// RoundRobin grants the first asserted request at or after the pointer and
// advances the pointer past the grant — the classic fair hardware arbiter.
type RoundRobin struct {
	next int
}

// Pick implements Arbiter.
func (r *RoundRobin) Pick(requests []bool) int {
	n := len(requests)
	if n == 0 {
		return None
	}
	for k := 0; k < n; k++ {
		i := (r.next + k) % n
		if requests[i] {
			r.next = (i + 1) % n
			return i
		}
	}
	return None
}

// FirstFrom is the rotating find-first-set kernel: the index of the first
// set bit of a request vector packed into words (request i is bit i&63 of
// word i>>6) at or after position from — the rest of from's word, the words
// after it, then wrapping to word 0 and the low bits of from's own word —
// or None when no bit is set. It is RoundRobin.Pick over the packed vector
// — the "request vector and a rotating priority pointer" of a hardware
// arbiter — with the pointer kept by the caller; from must be in
// 0…64·len(words)−1.
func FirstFrom(words []uint64, from int) int {
	j := from >> 6
	w := words[j] >> uint(from&63) << uint(from&63)
	for left := len(words); w == 0; left-- {
		if left == 0 {
			return None
		}
		if j++; j == len(words) {
			j = 0
		}
		w = words[j]
	}
	return j<<6 | bits.TrailingZeros64(w)
}

// Random grants a uniformly random asserted request; used to model the
// random selection among head-of-line contenders assumed by [KaHM87].
type Random struct {
	rng *rand.Rand
}

// NewRandom returns a random arbiter with the given seed.
func NewRandom(seed uint64) *Random {
	return &Random{rng: rand.New(rand.NewPCG(seed, 0x2545f4914f6cdd1d))}
}

// Pick implements Arbiter.
func (a *Random) Pick(requests []bool) int {
	count := 0
	pick := None
	for i, r := range requests {
		if !r {
			continue
		}
		count++
		// Reservoir sampling: replace with probability 1/count.
		if a.rng.IntN(count) == 0 {
			pick = i
		}
	}
	return pick
}

// Matcher computes a one-to-one matching of inputs to outputs subject to a
// request matrix.
type Matcher interface {
	// Match fills match (length n) with the output matched to each input,
	// or None, given req where req[i][o] reports that input i has at
	// least one cell for output o. It returns the matching size.
	Match(req [][]bool, match []int) int
}

// PIM is parallel iterative matching [AOST93]: in each iteration every
// unmatched output grants a random requesting unmatched input, and every
// input that received grants accepts one at random.
type PIM struct {
	iters int
	rng   *rand.Rand
	// scratch
	grants [][]int
}

// NewPIM returns a PIM scheduler running the given number of iterations
// (AOST93 use log₂n+¾ on average to converge; iters ≤ 0 means 4).
func NewPIM(iters int, seed uint64) *PIM {
	if iters <= 0 {
		iters = 4
	}
	return &PIM{iters: iters, rng: rand.New(rand.NewPCG(seed, 0x9e3779b97f4a7c15))}
}

// Match implements Matcher.
func (p *PIM) Match(req [][]bool, match []int) int {
	n := len(req)
	if cap(p.grants) < n {
		p.grants = make([][]int, n)
	}
	grants := p.grants[:n]
	for i := range match {
		match[i] = None
	}
	outMatched := make([]bool, n)
	size := 0
	for it := 0; it < p.iters && size < n; it++ {
		for i := range grants {
			grants[i] = grants[i][:0]
		}
		// Grant phase: each unmatched output picks a random unmatched
		// requesting input.
		for o := 0; o < n; o++ {
			if outMatched[o] {
				continue
			}
			count, pick := 0, None
			for i := 0; i < n; i++ {
				if match[i] == None && req[i][o] {
					count++
					if p.rng.IntN(count) == 0 {
						pick = i
					}
				}
			}
			if pick != None {
				grants[pick] = append(grants[pick], o)
			}
		}
		// Accept phase: each input with grants accepts one at random.
		for i := 0; i < n; i++ {
			if match[i] != None || len(grants[i]) == 0 {
				continue
			}
			o := grants[i][p.rng.IntN(len(grants[i]))]
			match[i] = o
			outMatched[o] = true
			size++
		}
	}
	return size
}

// ISLIP is the iterative round-robin matching with slip (iSLIP): grant and
// accept use round-robin pointers that advance only for matches made in the
// first iteration, which desynchronizes the pointers and reaches 100%
// throughput under uniform traffic.
type ISLIP struct {
	iters  int
	grant  []int // per-output grant pointer
	accept []int // per-input accept pointer
}

// NewISLIP returns an iSLIP scheduler for n ports with the given number of
// iterations (≤ 0 means 4).
func NewISLIP(n, iters int) *ISLIP {
	if iters <= 0 {
		iters = 4
	}
	return &ISLIP{iters: iters, grant: make([]int, n), accept: make([]int, n)}
}

// Match implements Matcher.
func (s *ISLIP) Match(req [][]bool, match []int) int {
	n := len(req)
	if n != len(s.grant) {
		panic(fmt.Sprintf("arb: iSLIP sized for %d ports, got %d", len(s.grant), n))
	}
	for i := range match {
		match[i] = None
	}
	outMatched := make([]bool, n)
	grantTo := make([]int, n)
	size := 0
	for it := 0; it < s.iters && size < n; it++ {
		// Grant phase.
		for o := 0; o < n; o++ {
			grantTo[o] = None
			if outMatched[o] {
				continue
			}
			for k := 0; k < n; k++ {
				i := (s.grant[o] + k) % n
				if match[i] == None && req[i][o] {
					grantTo[o] = i
					break
				}
			}
		}
		// Accept phase: each input accepts the first grant at or after
		// its accept pointer.
		for i := 0; i < n; i++ {
			if match[i] != None {
				continue
			}
			for k := 0; k < n; k++ {
				o := (s.accept[i] + k) % n
				if grantTo[o] == i {
					match[i] = o
					outMatched[o] = true
					size++
					if it == 0 {
						// Pointers advance one beyond the match, and
						// only for first-iteration matches (the "slip").
						s.accept[i] = (o + 1) % n
						s.grant[o] = (i + 1) % n
					}
					break
				}
			}
		}
	}
	return size
}

// TwoDRR is the basic two-dimensional round-robin scheduler of [LaSe95]:
// the request matrix is scanned along its n generalized diagonals, and the
// starting diagonal rotates every slot so that every (input, output) pair
// periodically gets top priority.
type TwoDRR struct {
	start int
}

// NewTwoDRR returns a 2DRR scheduler.
func NewTwoDRR() *TwoDRR { return &TwoDRR{} }

// Match implements Matcher.
func (t *TwoDRR) Match(req [][]bool, match []int) int {
	n := len(req)
	for i := range match {
		match[i] = None
	}
	outMatched := make([]bool, n)
	size := 0
	for j := 0; j < n; j++ {
		d := (t.start + j) % n
		// Diagonal d holds the pairs (i, (i+d) mod n).
		for i := 0; i < n; i++ {
			o := (i + d) % n
			if match[i] == None && !outMatched[o] && req[i][o] {
				match[i] = o
				outMatched[o] = true
				size++
			}
		}
	}
	t.start = (t.start + 1) % n
	return size
}
