package fault

import (
	"testing"

	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// pool is where the links under test return abandoned cells (and would
// draw queued ones from).
var pool = cell.NewPool(8)

// drive ticks the link until it yields a cell or gives up, returning the
// delivered cell (nil if the transfer failed) and the cycle after the
// last tick.
func drive(l *Link, from int64, bound int) (*cell.Cell, int64) {
	c := from
	for i := 0; i < bound; i++ {
		got := l.Tick(c, pool)
		c++
		if got != nil || l.Idle() {
			return got, c
		}
	}
	return nil, c
}

// TestLinkCleanTransfer: an unperturbed transfer takes exactly K cycles
// and delivers the payload verbatim.
func TestLinkCleanTransfer(t *testing.T) {
	const k = 8
	l := NewLink(k, 16, -1)
	c := cell.New(1, 0, 1, k, 16)
	l.Offer(c.Clone(), 0)
	got, at := drive(l, 0, 100)
	if got == nil {
		t.Fatal("clean transfer failed")
	}
	if at != k {
		t.Fatalf("delivery after %d cycles, want %d", at, k)
	}
	if !got.Equal(c) {
		t.Fatal("payload mangled on a clean link")
	}
	if l.Retransmits != 0 || l.Failed != 0 || l.Delivered != 1 {
		t.Fatalf("counters: retransmits=%d failed=%d delivered=%d", l.Retransmits, l.Failed, l.Delivered)
	}
}

// TestLinkRetransmitOnCorruption: one corrupted word triggers exactly one
// retransmission and the cell still arrives intact.
func TestLinkRetransmitOnCorruption(t *testing.T) {
	const k = 8
	l := NewLink(k, 16, -1)
	c := cell.New(2, 0, 1, k, 16)
	l.Offer(c.Clone(), 0)
	l.Tick(0, pool) // word 0 on the wire
	if !l.CorruptWord(Any, 0x10) {
		t.Fatal("corruption found no transfer in flight")
	}
	got, _ := drive(l, 1, 1000)
	if got == nil {
		t.Fatal("transfer failed despite retries available")
	}
	if !got.Equal(c) {
		t.Fatal("delivered payload corrupted — CRC failed to catch the flip")
	}
	if l.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", l.Retransmits)
	}
}

// TestLinkDropRetransmit: a lost word is equivalent to corruption — NAK
// and retransmit.
func TestLinkDropRetransmit(t *testing.T) {
	const k = 4
	l := NewLink(k, 16, -1)
	c := cell.New(3, 0, 1, k, 16)
	l.Offer(c.Clone(), 0)
	l.Tick(0, pool)
	l.Tick(1, pool)
	if !l.DropWord(1) {
		t.Fatal("drop found no transfer in flight")
	}
	got, _ := drive(l, 2, 1000)
	if got == nil || !got.Equal(c) {
		t.Fatal("cell not recovered after a word drop")
	}
	if l.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1", l.Retransmits)
	}
}

// TestLinkBoundedRetries: corrupting every attempt exhausts MaxRetries and
// the cell is abandoned, not delivered corrupted and not retried forever.
func TestLinkBoundedRetries(t *testing.T) {
	const k, retries = 4, 3
	l := NewLink(k, 16, retries)
	c := cell.New(4, 0, 1, k, 16)
	l.Offer(c, 0)
	cyc := int64(0)
	for i := 0; i < 10_000 && !l.Idle(); i++ {
		got := l.Tick(cyc, pool)
		if got != nil {
			t.Fatal("corrupted transfer delivered")
		}
		l.CorruptWord(Any, 1) // hit whatever word is in flight
		cyc++
	}
	if !l.Idle() {
		t.Fatal("link never gave up")
	}
	if l.Failed != 1 {
		t.Fatalf("failed = %d, want 1", l.Failed)
	}
	if l.Retransmits != retries {
		t.Fatalf("retransmits = %d, want %d", l.Retransmits, retries)
	}
}

// TestLinkBackoffSpacing: the gap before retransmission k is 2^k cycles
// (exponential backoff), so a persistent burst on the wire is outwaited.
func TestLinkBackoffSpacing(t *testing.T) {
	const k = 4
	l := NewLink(k, 16, -1)
	c := cell.New(5, 0, 1, k, 16)
	l.Offer(c.Clone(), 0)
	// First attempt: words at cycles 0..3, corrupted; NAK at cycle 3.
	for cyc := int64(0); cyc < k; cyc++ {
		l.Tick(cyc, pool)
		l.CorruptWord(Any, 1)
	}
	if l.Retransmits != 1 {
		t.Fatalf("retransmits = %d, want 1 after first NAK", l.Retransmits)
	}
	// Backoff 2^1 = 2: the wire is silent at cycles 4 and 5, the second
	// attempt runs clean at cycles 6..9.
	for cyc := int64(k); cyc < k+2; cyc++ {
		if l.Tick(cyc, pool) != nil || l.active() {
			t.Fatalf("link transmitted during backoff at cycle %d", cyc)
		}
	}
	got, at := drive(l, k+2, 100)
	if got == nil || !got.Equal(c) {
		t.Fatal("second attempt failed")
	}
	if want := int64(k + 2 + k); at != want {
		t.Fatalf("delivery at cycle %d, want %d", at, want)
	}
}

// crcCollision searches a two-word XOR pair (masks for words 0 and 1) that
// leaves the CRC-16 of words unchanged — the corruption a CRC cannot see.
func crcCollision(t *testing.T, words []cell.Word) (m0, m1 cell.Word) {
	t.Helper()
	w := append([]cell.Word(nil), words...)
	crc := cell.CRC16(w)
	// CRC-16 is linear over XOR, so the change a mask causes in the trailer
	// does not depend on the other word: index word 1's masks by it.
	by := make(map[uint16]cell.Word)
	for m := cell.Word(1); m <= 0xffff; m++ {
		w[1] = words[1] ^ m
		by[cell.CRC16(w)^crc] = m
	}
	w[1] = words[1]
	for m := cell.Word(1); m <= 0xffff; m++ {
		w[0] = words[0] ^ m
		if m1, ok := by[cell.CRC16(w)^crc]; ok {
			w[1] = words[1] ^ m1
			if cell.CRC16(w) != crc {
				t.Fatalf("masks %#x/%#x: trailer moved; CRC16 is not linear as assumed", m, m1)
			}
			return m, m1
		}
	}
	t.Fatal("no two-word collision over 16-bit masks")
	return 0, 0
}

// TestLinkCRCEscapeCounted: a corruption the trailer cannot see passes the
// receiver's check and is delivered — and since the switch will vouch for
// the cell as it leaves the link, the link itself must compare the wire
// with what was sent and count the cell corrupt. Never silent.
func TestLinkCRCEscapeCounted(t *testing.T) {
	const k = 8
	l := NewLink(k, 16, -1)
	c := cell.New(6, 0, 1, k, 16)
	m0, m1 := crcCollision(t, c.Words)
	l.Offer(c.Clone(), 0)
	l.Tick(0, pool)
	l.Tick(1, pool) // words 0 and 1 are on the wire
	if !l.CorruptWord(0, m0) || !l.CorruptWord(1, m1) {
		t.Fatal("corruption found no transfer in flight")
	}
	got, at := drive(l, 2, 100)
	if got == nil || at != k {
		t.Fatalf("escaped corruption not delivered on the first attempt (got %v at cycle %d)", got, at)
	}
	if l.Corrupt != 1 || l.Retransmits != 0 || l.Delivered != 1 {
		t.Fatalf("corrupt=%d retransmits=%d delivered=%d, want 1/0/1", l.Corrupt, l.Retransmits, l.Delivered)
	}
	if got.Words[0] != c.Words[0]^m0 || got.Words[1] != c.Words[1]^m1 || got.Equal(c) {
		t.Fatal("the delivered cell must carry the wire's payload, not the sender's")
	}
}

// TestLinkSenderQueue: arrivals behind a busy link wait in order, each
// built from the pool when the wire frees; an undisturbed link hands over a
// cell every K cycles and the queue drains to empty.
func TestLinkSenderQueue(t *testing.T) {
	const k = 4
	st := NewStage(core.Geometry{Ports: 2, CellWords: k, WordBits: 16, Cells: 8}, 0)
	p := cell.NewPool(k)
	heads := make([]*cell.Cell, 2)
	for seq := uint64(1); seq <= 3; seq++ {
		st.Offer(1, seq, 0)
	}
	var got []uint64
	for c := int64(0); st.Held() > 0; c++ {
		if c > 100 {
			t.Fatal("queue never drained")
		}
		st.Tick(c, heads, p)
		if heads[0] != nil {
			t.Fatal("head on the idle link")
		}
		if h := heads[1]; h != nil {
			if h.Src != 1 || h.Dst != 0 || !h.Equal(cell.New(h.Seq, 1, 0, k, 16)) {
				t.Fatalf("cycle %d: delivered %v, not the cell its queue entry names", c, h)
			}
			if want := int64(len(got)+1) * k; c != want {
				t.Fatalf("cell %d delivered at cycle %d, want %d", h.Seq, c, want)
			}
			got = append(got, h.Seq)
		}
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("delivery order %v, want [1 2 3]", got)
	}
}
