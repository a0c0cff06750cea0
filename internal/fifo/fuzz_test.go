package fifo

import (
	"slices"
	"testing"
)

// FuzzFreeListMultiQueue drives the shared-buffer management pair with an
// arbitrary operation string and checks the no-leak/no-double-use
// invariants after every step. A growing pair — a list that spans 3 of
// the 16 addresses and grows when Get finds it empty, its queue links
// grown alongside — runs beside the full-size one and must hand out the
// same addresses and snapshot to the same bytes at every step. An op with
// bits 1–3 set replaces the growing list by one restored from its
// snapshot.
func FuzzFreeListMultiQueue(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7})
	f.Add([]byte{0, 0, 0, 0, 9, 9, 9, 9})
	f.Add([]byte{0, 0x10, 0x20, 0x30, 0, 0x10, 0x21, 0x0e, 0, 0, 0, 0x31, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0x0f})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		const size, queues, span = 16, 4, 3
		fl := NewFreeList(size)
		mq := NewMultiQueue(queues, size)
		gl := NewGrowingFreeList(size, span)
		gq := NewMultiQueue(queues, span)
		for _, op := range ops {
			q := int(op>>4) % queues
			if op&1 == 0 {
				a, ok := fl.Get()
				b, gok := gl.Get()
				if !gok && gl.Grow() {
					gq.Grow(gl.Span())
					b, gok = gl.Get()
				}
				if a != b || ok != gok {
					t.Fatalf("op %x: Get = %d, %v on the full list, %d, %v on the growing one", op, a, ok, b, gok)
				}
				if ok {
					mq.Push(q, a)
					gq.Push(q, b)
				}
			} else {
				a, ok := mq.Pop(q)
				b, gok := gq.Pop(q)
				if a != b || ok != gok {
					t.Fatalf("op %x: Pop = %d, %v on the full list, %d, %v on the growing one", op, a, ok, b, gok)
				}
				if ok {
					fl.Put(a)
					gl.Put(b)
				}
			}
			if op&0x0e == 0x0e {
				r := NewGrowingFreeList(size, span)
				if err := r.RestoreState(gl.Snapshot()); err != nil {
					t.Fatal(err)
				}
				gl = r
				gq.Grow(gl.Span())
			}
			if fl.Free()+mq.Total() != size {
				t.Fatalf("leak after op %x: free %d + queued %d != %d", op, fl.Free(), mq.Total(), size)
			}
			if gl.Free() != fl.Free() || gl.Span() > size || !slices.Equal(gl.Snapshot(), fl.Snapshot()) {
				t.Fatalf("op %x: growing list (span %d, free %d) snapshots %v, full list (free %d) %v",
					op, gl.Span(), gl.Free(), gl.Snapshot(), fl.Free(), fl.Snapshot())
			}
			for a := 0; a < size; a++ {
				if gl.Allocated(a) != fl.Allocated(a) {
					t.Fatalf("op %x: address %d allocated %v on the growing list, %v on the full one", op, a, gl.Allocated(a), fl.Allocated(a))
				}
			}
		}
	})
}

// FuzzRing compares the Ring against a reference slice queue under an
// arbitrary operation string.
func FuzzRing(f *testing.F) {
	f.Add([]byte{0, 1, 2, 0, 1, 2})
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 4096 {
			ops = ops[:4096]
		}
		r := NewRing[int](8)
		var ref []int
		next := 0
		for _, op := range ops {
			switch op % 3 {
			case 0:
				ok := r.Push(next)
				if ok != (len(ref) < 8) {
					t.Fatal("push acceptance mismatch")
				}
				if ok {
					ref = append(ref, next)
				}
				next++
			case 1:
				v, ok := r.Pop()
				if ok != (len(ref) > 0) {
					t.Fatal("pop availability mismatch")
				}
				if ok {
					if v != ref[0] {
						t.Fatalf("pop %d, want %d", v, ref[0])
					}
					ref = ref[1:]
				}
			case 2:
				i := int(op>>2) % 8
				v, ok := r.RemoveAt(i)
				if ok != (i < len(ref)) {
					t.Fatal("removeAt availability mismatch")
				}
				if ok {
					if v != ref[i] {
						t.Fatalf("removeAt %d, want %d", v, ref[i])
					}
					ref = append(ref[:i], ref[i+1:]...)
				}
			}
			if r.Len() != len(ref) {
				t.Fatal("length divergence")
			}
		}
	})
}
