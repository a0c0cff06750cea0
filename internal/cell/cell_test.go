package cell

import (
	"math/rand/v2"
	"testing"
	"testing/quick"
)

func TestMask(t *testing.T) {
	tests := []struct {
		w     Word
		width int
		want  Word
	}{
		{0xffff, 8, 0xff},
		{0xffff, 16, 0xffff},
		{0xffffffffffffffff, 64, 0xffffffffffffffff},
		{0xffffffffffffffff, 1, 1},
		{0x12345678, 4, 0x8},
		{0xff, 0, 0},
	}
	for _, tt := range tests {
		if got := tt.w.Mask(tt.width); got != tt.want {
			t.Errorf("Mask(%#x, %d) = %#x, want %#x", uint64(tt.w), tt.width, uint64(got), uint64(tt.want))
		}
	}
}

func TestNewDeterministic(t *testing.T) {
	a := New(7, 1, 2, 16, 16)
	b := New(7, 1, 2, 16, 16)
	if !a.Equal(b) {
		t.Fatal("New is not deterministic for identical arguments")
	}
	c := New(8, 1, 2, 16, 16)
	if a.Equal(c) {
		t.Fatal("cells with different seq compare equal")
	}
	if a.Len() != 16 {
		t.Fatalf("Len = %d, want 16", a.Len())
	}
	for i, w := range a.Words {
		if w != w.Mask(16) {
			t.Fatalf("word %d = %#x exceeds 16-bit width", i, uint64(w))
		}
	}
	if got := int(a.Words[0]); got != 2 {
		t.Fatalf("header word = %d, want destination 2", got)
	}
}

func TestChecksumDetectsChanges(t *testing.T) {
	a := New(42, 3, 5, 8, 16)
	sum := a.Checksum()

	b := a.Clone()
	if b.Checksum() != sum {
		t.Fatal("clone checksum differs")
	}
	b.Words[3] ^= 1
	if b.Checksum() == sum {
		t.Fatal("payload corruption not detected")
	}

	c := a.Clone()
	c.Words[1], c.Words[2] = c.Words[2], c.Words[1]
	if c.Words[1] != c.Words[2] && c.Checksum() == sum {
		t.Fatal("word reordering not detected")
	}

	d := a.Clone()
	d.Seq++
	if d.Checksum() == sum {
		t.Fatal("seq change not detected")
	}
}

func TestCloneIsDeep(t *testing.T) {
	a := New(1, 0, 1, 4, 8)
	b := a.Clone()
	b.Words[0] = 0xAA
	if a.Words[0] == 0xAA {
		t.Fatal("Clone shares payload storage with original")
	}
}

func TestEqualIgnoresTimestamps(t *testing.T) {
	a := New(9, 0, 3, 4, 8)
	b := a.Clone()
	b.Enqueue = 999
	if !a.Equal(b) {
		t.Fatal("Equal must ignore Enqueue metadata")
	}
}

// TestTagIsMetadata: Tag is the driver's handle, not the cell's identity —
// Equal ignores it and Clone carries it over.
func TestTagIsMetadata(t *testing.T) {
	a := New(9, 0, 3, 4, 8)
	a.Tag = 41
	b := a.Clone()
	if b.Tag != 41 {
		t.Fatalf("Clone dropped Tag: got %d, want 41", b.Tag)
	}
	b.Tag = 7
	if !a.Equal(b) || !b.Equal(a) {
		t.Fatal("Equal must ignore Tag")
	}
}

func TestNewRandomRespectsWidth(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for i := 0; i < 100; i++ {
		c := NewRandom(rng, uint64(i), 0, 3, 8, 12)
		for j, w := range c.Words {
			if w != w.Mask(12) {
				t.Fatalf("cell %d word %d exceeds width", i, j)
			}
		}
		if int(c.Words[0]) != 3 {
			t.Fatalf("cell %d header != dst", i)
		}
	}
}

func TestChecksumQuick(t *testing.T) {
	// Property: two cells with any differing field have different sums
	// (up to hash collisions, vanishingly unlikely for random inputs).
	f := func(seq uint64, src, dst uint8, flip uint8) bool {
		a := New(seq, int(src%8), int(dst%8), 8, 16)
		b := a.Clone()
		i := int(flip) % len(b.Words)
		if i == 0 {
			i = 1 // word 0 is the header; keep dst coherent
		}
		b.Words[i] ^= 1
		return a.Checksum() != b.Checksum()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMessage(t *testing.T) {
	fs := Message(5, 3, 20, 100)
	if len(fs) != 20 {
		t.Fatalf("len = %d, want 20", len(fs))
	}
	if !fs[0].Kind.IsHead() || fs[0].Kind.IsTail() {
		t.Fatal("first flit must be head only")
	}
	if !fs[19].Kind.IsTail() || fs[19].Kind.IsHead() {
		t.Fatal("last flit must be tail only")
	}
	for i, f := range fs {
		if f.Index != i || f.Msg != 5 || f.Dst != 3 || f.Inject != 100 {
			t.Fatalf("flit %d has wrong metadata: %+v", i, f)
		}
		if i > 0 && i < 19 && (f.Kind.IsHead() || f.Kind.IsTail()) {
			t.Fatalf("interior flit %d marked head/tail", i)
		}
	}
}

func TestMessageSingleFlit(t *testing.T) {
	fs := Message(1, 0, 1, 0)
	if len(fs) != 1 || !fs[0].Kind.IsHead() || !fs[0].Kind.IsTail() {
		t.Fatal("single-flit message must be head and tail")
	}
}

func TestMessagePanicsOnZeroLength(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for zero-length message")
		}
	}()
	Message(1, 0, 0, 0)
}
