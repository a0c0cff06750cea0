package arb

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestRoundRobinFairness(t *testing.T) {
	var rr RoundRobin
	req := []bool{true, true, true, true}
	seen := make([]int, 4)
	for i := 0; i < 400; i++ {
		g := rr.Pick(req)
		if g == None {
			t.Fatal("no grant with all requests asserted")
		}
		seen[g]++
	}
	for i, c := range seen {
		if c != 100 {
			t.Fatalf("requester %d granted %d times, want 100", i, c)
		}
	}
}

func TestRoundRobinSkipsIdle(t *testing.T) {
	var rr RoundRobin
	req := []bool{false, true, false, true}
	want := []int{1, 3, 1, 3}
	for i, w := range want {
		if g := rr.Pick(req); g != w {
			t.Fatalf("pick %d = %d, want %d", i, g, w)
		}
	}
	if g := rr.Pick([]bool{false, false}); g != None {
		t.Fatalf("empty request vector granted %d", g)
	}
	if g := rr.Pick(nil); g != None {
		t.Fatal("nil request vector granted")
	}
}

func TestFirstFrom(t *testing.T) {
	for _, tc := range []struct {
		words []uint64
		from  int
		want  int
	}{
		{[]uint64{0}, 0, None},
		{[]uint64{0}, 63, None},
		{[]uint64{1}, 0, 0},
		{[]uint64{1}, 1, 0}, // wraps past bit 63 back to bit 0
		{[]uint64{1}, 63, 0},
		{[]uint64{0b1010}, 0, 1},
		{[]uint64{0b1010}, 1, 1}, // "at or after": from itself is eligible
		{[]uint64{0b1010}, 2, 3},
		{[]uint64{0b1010}, 4, 1},
		{[]uint64{1 << 63}, 0, 63},
		{[]uint64{1 << 63}, 63, 63},
		{[]uint64{1<<63 | 1}, 63, 63},
		{[]uint64{1<<63 | 1<<5}, 6, 63},
		{[]uint64{^uint64(0)}, 17, 17},
		{[]uint64{0, 0, 0}, 130, None},
		{[]uint64{0, 1 << 2, 0}, 0, 66},
		{[]uint64{0, 1 << 2, 0}, 67, 66},  // wraps through word 0 back to word 1
		{[]uint64{1 << 9, 0, 1}, 70, 128}, // the words after from's
		{[]uint64{1 << 9, 0, 0}, 129, 9},  // wraps past the last word
		{[]uint64{0, 1<<3 | 1<<40, 0}, 64 + 20, 64 + 40},
		{[]uint64{0, 1<<3 | 1<<40, 0}, 64 + 41, 64 + 3}, // low bits of from's word come last
	} {
		if got := FirstFrom(tc.words, tc.from); got != tc.want {
			t.Errorf("FirstFrom(%#x, %d) = %d, want %d", tc.words, tc.from, got, tc.want)
		}
	}
}

// TestFirstFromMatchesRoundRobin: over any request vector of 1…192 ports
// packed into one to three words, and any pointer, the packed kernel grants
// exactly what the []bool arbiter does.
func TestFirstFromMatchesRoundRobin(t *testing.T) {
	prop := func(packed [3]uint64, ports, from uint8) bool {
		n := 1 + int(ports)%192
		words := make([]uint64, (n+63)/64)
		req := make([]bool, n)
		for i := range req {
			if req[i] = packed[i/64]>>uint(i%64)&1 != 0; req[i] {
				words[i/64] |= 1 << uint(i%64)
			}
		}
		rr := RoundRobin{next: int(from) % n}
		return FirstFrom(words, int(from)%n) == rr.Pick(req)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomUniform(t *testing.T) {
	a := NewRandom(1)
	req := []bool{true, false, true, true}
	counts := map[int]int{}
	const trials = 30_000
	for i := 0; i < trials; i++ {
		g := a.Pick(req)
		if g == 1 || g == None {
			t.Fatalf("granted invalid requester %d", g)
		}
		counts[g]++
	}
	for _, i := range []int{0, 2, 3} {
		frac := float64(counts[i]) / trials
		if frac < 0.30 || frac > 0.37 {
			t.Fatalf("requester %d granted fraction %v, want ≈1/3", i, frac)
		}
	}
}

func fullRequests(n int) [][]bool {
	req := make([][]bool, n)
	for i := range req {
		req[i] = make([]bool, n)
		for o := range req[i] {
			req[i][o] = true
		}
	}
	return req
}

func randomRequests(rng *rand.Rand, n int, p float64) [][]bool {
	req := make([][]bool, n)
	for i := range req {
		req[i] = make([]bool, n)
		for o := range req[i] {
			req[i][o] = rng.Float64() < p
		}
	}
	return req
}

// validMatching checks the fundamental matching properties: every matched
// pair was requested, and no input or output is used twice.
func validMatching(req [][]bool, match []int) bool {
	n := len(req)
	usedOut := make([]bool, n)
	for i, o := range match {
		if o == None {
			continue
		}
		if o < 0 || o >= n || !req[i][o] || usedOut[o] {
			return false
		}
		usedOut[o] = true
	}
	return true
}

// maximal checks that no unmatched input requests an unmatched output.
func maximal(req [][]bool, match []int) bool {
	n := len(req)
	usedOut := make([]bool, n)
	for _, o := range match {
		if o != None {
			usedOut[o] = true
		}
	}
	for i, o := range match {
		if o != None {
			continue
		}
		for out := 0; out < n; out++ {
			if req[i][out] && !usedOut[out] {
				return false
			}
		}
	}
	return true
}

// matchers returns schedulers configured with n iterations, enough for a
// maximal matching within a single slot (fresh iSLIP pointers are fully
// synchronized and match only one pair per iteration).
func matchers(n int) map[string]Matcher {
	return map[string]Matcher{
		"pim":   NewPIM(n, 7),
		"islip": NewISLIP(n, n),
		"2drr":  NewTwoDRR(),
	}
}

func TestMatchersValidityQuick(t *testing.T) {
	for name, mk := range map[string]func(n int) Matcher{
		"pim":   func(n int) Matcher { return NewPIM(0, 7) },
		"islip": func(n int) Matcher { return NewISLIP(n, 0) },
		"2drr":  func(n int) Matcher { return NewTwoDRR() },
	} {
		f := func(seed uint64, nRaw, pRaw uint8) bool {
			n := 2 + int(nRaw%15)
			p := float64(pRaw%100) / 100
			rng := rand.New(rand.NewPCG(seed, 5))
			m := mk(n)
			match := make([]int, n)
			for trial := 0; trial < 10; trial++ {
				req := randomRequests(rng, n, p)
				size := m.Match(req, match)
				if !validMatching(req, match) {
					return false
				}
				got := 0
				for _, o := range match {
					if o != None {
						got++
					}
				}
				if got != size {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
}

func TestMatchersPerfectOnFullRequests(t *testing.T) {
	const n = 8
	req := fullRequests(n)
	match := make([]int, n)
	for name, m := range matchers(n) {
		if size := m.Match(req, match); size != n {
			t.Errorf("%s: matching size %d on full requests, want %d", name, size, n)
		}
	}
}

func TestISLIPMaximalWithEnoughIterations(t *testing.T) {
	const n = 8
	s := NewISLIP(n, n) // n iterations guarantee maximality
	rng := rand.New(rand.NewPCG(2, 2))
	match := make([]int, n)
	for trial := 0; trial < 500; trial++ {
		req := randomRequests(rng, n, 0.3)
		s.Match(req, match)
		if !maximal(req, match) {
			t.Fatalf("trial %d: iSLIP matching not maximal", trial)
		}
	}
}

func TestPIMMaximalWithEnoughIterations(t *testing.T) {
	const n = 8
	p := NewPIM(n, 3)
	rng := rand.New(rand.NewPCG(4, 4))
	match := make([]int, n)
	for trial := 0; trial < 500; trial++ {
		req := randomRequests(rng, n, 0.3)
		p.Match(req, match)
		if !maximal(req, match) {
			t.Fatalf("trial %d: PIM matching not maximal", trial)
		}
	}
}

func TestTwoDRRMaximal(t *testing.T) {
	// Scanning all n diagonals touches every (i,o) pair once, so the
	// greedy result is always maximal.
	const n = 8
	m := NewTwoDRR()
	rng := rand.New(rand.NewPCG(6, 6))
	match := make([]int, n)
	for trial := 0; trial < 500; trial++ {
		req := randomRequests(rng, n, 0.3)
		m.Match(req, match)
		if !maximal(req, match) {
			t.Fatalf("trial %d: 2DRR matching not maximal", trial)
		}
	}
}

func TestTwoDRRRotatesPriority(t *testing.T) {
	// With a single persistent conflict (two inputs for one output),
	// rotation must alternate the winner over time rather than starving
	// one input.
	const n = 4
	m := NewTwoDRR()
	req := make([][]bool, n)
	for i := range req {
		req[i] = make([]bool, n)
	}
	req[0][0] = true
	req[1][0] = true
	match := make([]int, n)
	wins := map[int]int{}
	for slot := 0; slot < 100; slot++ {
		m.Match(req, match)
		for i, o := range match {
			if o == 0 {
				wins[i]++
			}
		}
	}
	if wins[0] == 0 || wins[1] == 0 {
		t.Fatalf("starvation: wins = %v", wins)
	}
}

func TestISLIPDesynchronizesUnderFullLoad(t *testing.T) {
	// The signature iSLIP behaviour: with persistent full requests the
	// pointers desynchronize and the scheduler settles into 100%
	// throughput (perfect matchings every slot).
	const n = 8
	s := NewISLIP(n, 1) // even one iteration suffices once desynchronized
	req := fullRequests(n)
	match := make([]int, n)
	// Warm-up to let pointers spread out.
	for slot := 0; slot < 2*n; slot++ {
		s.Match(req, match)
	}
	for slot := 0; slot < 100; slot++ {
		if size := s.Match(req, match); size != n {
			t.Fatalf("slot %d: matching size %d, want %d", slot, size, n)
		}
	}
}

func TestISLIPWrongSizePanics(t *testing.T) {
	s := NewISLIP(4, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched size")
		}
	}()
	s.Match(fullRequests(8), make([]int, 8))
}
