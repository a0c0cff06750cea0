package cell

import "testing"

// TestFillMatchesNew: regenerating a recycled cell in place produces
// exactly the cell New would allocate for the same identity.
func TestFillMatchesNew(t *testing.T) {
	fresh := New(7, 2, 5, 16, 16)
	recycled := New(99, 0, 1, 16, 16)
	recycled.Copies = []int{3}
	recycled.Enqueue = 123
	recycled.VC = 2
	recycled.Tag = 5
	Fill(recycled, 7, 2, 5, 16, 16)
	if !recycled.Equal(fresh) {
		t.Fatalf("Fill diverged from New:\n%v\nvs\n%v", recycled, fresh)
	}
	if recycled.Copies != nil || recycled.Enqueue != 0 || recycled.VC != 0 || recycled.Tag != 0 {
		t.Fatalf("Fill left stale state: %+v", recycled)
	}
}

// TestPoolReuse: Put makes the cell available to the next Get; undersized
// or nil cells are dropped.
func TestPoolReuse(t *testing.T) {
	p := NewPool(8)
	c1 := p.New(1, 0, 1, 16)
	if len(c1.Words) != 8 {
		t.Fatalf("pool cell has %d words", len(c1.Words))
	}
	p.Put(c1)
	if p.Len() != 1 {
		t.Fatalf("pool holds %d, want 1", p.Len())
	}
	c2 := p.New(2, 1, 0, 16)
	if c2 != c1 {
		t.Fatal("Get did not reuse the pooled cell")
	}
	if p.Len() != 0 {
		t.Fatal("pool not drained by Get")
	}
	if !c2.Equal(New(2, 1, 0, 8, 16)) {
		t.Fatal("recycled cell payload wrong")
	}

	p.Put(nil)
	p.Put(&Cell{Words: make([]Word, 4)}) // undersized: must be dropped
	if p.Len() != 0 {
		t.Fatalf("pool accepted unusable cells: %d", p.Len())
	}
}
