package cell

// Fill regenerates c in place exactly as New(seq, src, dst, words, width)
// would build a fresh cell, reusing c's Words backing array when its
// capacity allows. Copies, Enqueue and Tag are reset. The caller must hold
// the only live reference to c (a recycled cell must have left the switch).
func Fill(c *Cell, seq uint64, src, dst, words, width int) {
	c.Seq, c.Src, c.Dst, c.VC = seq, src, dst, 0
	c.Copies = nil
	c.Enqueue, c.Tag = 0, 0
	if cap(c.Words) >= words {
		c.Words = c.Words[:words]
	} else {
		c.Words = make([]Word, words)
	}
	// Each word is an independent mix of (cell identity, word index): unlike
	// a serial xorshift chain, the iterations carry no data dependence, so
	// the fill pipelines at one word per cycle or better. One multiply plus
	// a xor-fold is plenty for the integrity checks the payload feeds
	// (departure-vs-injection comparison): distinct, well-scrambled words.
	base := seq*0x9e3779b97f4a7c15 + uint64(src)*0xbf58476d1ce4e5b9 + uint64(dst)*0x94d049bb133111eb
	m := ^Word(0)
	if width < 64 {
		m = Word(1)<<uint(width) - 1
	}
	w := c.Words
	for i := range w {
		x := (base + uint64(i)) * 0xd6e8feb86659fd93
		w[i] = Word(x^x>>32) & m
	}
	w[0] = Word(uint64(dst)) & m
}

// Pool recycles Cells of a fixed word count so traffic drivers can inject
// cells without allocating in steady state: Get (or New) a cell, inject
// it, and Put it back once the switch has handed it back as
// Departure.Expected. Cells that never depart (drops) simply leak from
// the pool, which stays correct — the next Get allocates.
//
// A Pool is not safe for concurrent use; each driver owns its own.
type Pool struct {
	words int
	free  []*Cell
}

// NewPool returns a pool of cells that are words words long.
func NewPool(words int) *Pool { return &Pool{words: words} }

// Get returns a cell with a words-long payload buffer. The payload is
// whatever its previous user left behind; Fill it before injecting.
func (p *Pool) Get() *Cell {
	if n := len(p.free); n > 0 {
		c := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		c.Words = c.Words[:p.words]
		return c
	}
	return &Cell{Words: make([]Word, p.words)}
}

// New is Get followed by Fill: a pooled cell with the same deterministic
// payload the package-level New produces.
func (p *Pool) New(seq uint64, src, dst, width int) *Cell {
	c := p.Get()
	Fill(c, seq, src, dst, p.words, width)
	return c
}

// Put returns a cell to the pool. The caller must hold the only live
// reference. nil cells and cells whose buffer is too small for this pool
// are dropped rather than recycled.
func (p *Pool) Put(c *Cell) {
	if c == nil || cap(c.Words) < p.words {
		return
	}
	p.free = append(p.free, c)
}

// Len returns the number of idle cells held by the pool.
func (p *Pool) Len() int { return len(p.free) }
