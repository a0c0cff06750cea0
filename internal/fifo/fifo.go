// Package fifo provides the queue structures the switch models share: a
// generic ring FIFO (input/output queues of the slot-level simulators), a
// free list of buffer addresses, and a linked-list multiqueue — several
// logical FIFO queues threaded through one shared storage array, the
// structure used both by non-FIFO input buffers [TaFr88] and by the shared
// buffer's per-output queues of packet descriptors (§3.3 of the paper: "the
// buffer (address) management circuits").
package fifo

import "fmt"

// Ring is a bounded FIFO queue over a circular buffer. A zero Ring is not
// usable; construct with NewRing. Cap = 0 means unbounded (the ring grows).
type Ring[T any] struct {
	buf     []T
	head    int // index of front element
	n       int // number of elements
	bounded bool
}

// NewRing returns a FIFO with the given capacity; cap ≤ 0 makes it
// unbounded.
func NewRing[T any](capacity int) *Ring[T] {
	if capacity <= 0 {
		return &Ring[T]{buf: make([]T, 8)}
	}
	return &Ring[T]{buf: make([]T, capacity), bounded: true}
}

// Len returns the number of queued elements.
func (r *Ring[T]) Len() int { return r.n }

// Cap returns the capacity, or -1 if unbounded.
func (r *Ring[T]) Cap() int {
	if !r.bounded {
		return -1
	}
	return len(r.buf)
}

// Full reports whether a Push would fail.
func (r *Ring[T]) Full() bool { return r.bounded && r.n == len(r.buf) }

// Push appends v; it reports false (dropping v) if the queue is full.
func (r *Ring[T]) Push(v T) bool {
	if r.Full() {
		return false
	}
	if !r.bounded && r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)%len(r.buf)] = v
	r.n++
	return true
}

func (r *Ring[T]) grow() {
	nb := make([]T, 2*len(r.buf))
	for i := 0; i < r.n; i++ {
		nb[i] = r.buf[(r.head+i)%len(r.buf)]
	}
	r.buf, r.head = nb, 0
}

// Pop removes and returns the front element; ok is false when empty.
func (r *Ring[T]) Pop() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	v = r.buf[r.head]
	var zero T
	r.buf[r.head] = zero
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return v, true
}

// Front returns the front element without removing it.
func (r *Ring[T]) Front() (v T, ok bool) {
	if r.n == 0 {
		return v, false
	}
	return r.buf[r.head], true
}

// At returns the i-th element from the front (0 = front) without removing
// it; used by non-FIFO (bypassing) schedulers that may pick any queued cell.
func (r *Ring[T]) At(i int) (v T, ok bool) {
	if i < 0 || i >= r.n {
		return v, false
	}
	return r.buf[(r.head+i)%len(r.buf)], true
}

// RemoveAt removes and returns the i-th element from the front, preserving
// the order of the rest. It is O(n) and exists for the non-FIFO input
// buffer model, where any queued cell may be dispatched.
func (r *Ring[T]) RemoveAt(i int) (v T, ok bool) {
	if i < 0 || i >= r.n {
		return v, false
	}
	v = r.buf[(r.head+i)%len(r.buf)]
	for j := i; j < r.n-1; j++ {
		r.buf[(r.head+j)%len(r.buf)] = r.buf[(r.head+j+1)%len(r.buf)]
	}
	var zero T
	r.buf[(r.head+r.n-1)%len(r.buf)] = zero
	r.n--
	return v, true
}

// FreeList hands out integer buffer addresses in [0, size) and takes them
// back. It is the model of the hardware free-address list that supplies the
// "buffer address" of each write-wave initiation (§3.3).
//
// A list may hold only a prefix [0, Span) of its addresses (NewGrowingFreeList)
// and Grow into the rest on demand. It hands out addresses in exactly the
// order a list holding all of them would: in that list the addresses from
// Span on sit untouched at the bottom of the LIFO stack, so they are reached
// only once every address below them is out, and Grow puts them there.
type FreeList struct {
	free []int32
	out  []bool // out[a]: address a currently allocated; len(out) is the span
	size int
}

// NewFreeList returns a list with all size addresses free.
func NewFreeList(size int) *FreeList { return NewGrowingFreeList(size, size) }

// NewGrowingFreeList returns a list of size addresses, all free, that holds
// the first min(span, size) of them until Grow adds more.
func NewGrowingFreeList(size, span int) *FreeList {
	f := &FreeList{size: size}
	f.growTo(min(span, size))
	return f
}

// growTo extends the span to n, the new addresses going in at the bottom
// of the stack in NewFreeList's order: LIFO starting at 0 keeps small runs
// compact and predictable.
func (f *FreeList) growTo(n int) {
	free := make([]int32, 0, n)
	for a := n - 1; a >= len(f.out); a-- {
		free = append(free, int32(a))
	}
	f.free = append(free, f.free...)
	out := make([]bool, n)
	copy(out, f.out)
	f.out = out
}

// Grow doubles the span, up to Size; it reports false when the span is
// already Size.
func (f *FreeList) Grow() bool {
	if len(f.out) >= f.size {
		return false
	}
	f.growTo(min(max(2*len(f.out), 1), f.size))
	return true
}

// Span returns the number of addresses the list holds: every address Get
// has handed out is below it.
func (f *FreeList) Span() int { return len(f.out) }

// Free returns the number of unallocated addresses.
func (f *FreeList) Free() int { return len(f.free) + f.size - len(f.out) }

// Size returns the total number of addresses managed.
func (f *FreeList) Size() int { return f.size }

// Get allocates an address; ok is false when every address within the span
// is out — the buffer is exhausted (the switch then drops the arriving
// cell), or a growing list must Grow first.
func (f *FreeList) Get() (addr int, ok bool) {
	if len(f.free) == 0 {
		return 0, false
	}
	a := f.free[len(f.free)-1]
	f.free = f.free[:len(f.free)-1]
	f.out[a] = true
	return int(a), true
}

// Put returns an address to the list. Double-free and out-of-range are
// programming errors and panic: they correspond to corrupting the hardware
// free list.
func (f *FreeList) Put(addr int) {
	if addr < 0 || addr >= len(f.out) {
		panic(fmt.Sprintf("fifo: free of out-of-range address %d", addr))
	}
	if !f.out[addr] {
		panic(fmt.Sprintf("fifo: double free of address %d", addr))
	}
	f.out[addr] = false
	f.free = append(f.free, int32(addr))
}

// Allocated reports whether addr is currently allocated.
func (f *FreeList) Allocated(addr int) bool {
	return addr >= 0 && addr < len(f.out) && f.out[addr]
}

// MultiQueue is a set of q logical FIFO queues threaded through one shared
// pool of `size` nodes via next-pointers: the structure a shared buffer uses
// to keep per-output lists of cell descriptors with O(1) enqueue/dequeue and
// no per-queue reserved space. Node indices double as buffer addresses.
type MultiQueue struct {
	next       []int32 // next[i]: following node in i's queue, -1 at tail
	head, tail []int32 // per queue, -1 when empty
	count      []int   // per queue length
	total      int
	inQueue    []bool
}

// NewMultiQueue returns q empty queues over a pool of size nodes.
func NewMultiQueue(q, size int) *MultiQueue {
	m := &MultiQueue{
		head:  make([]int32, q),
		tail:  make([]int32, q),
		count: make([]int, q),
	}
	for i := range m.head {
		m.head[i], m.tail[i] = -1, -1
	}
	m.Grow(size)
	return m
}

// Grow extends the node pool to size nodes; a smaller size changes nothing.
func (m *MultiQueue) Grow(size int) {
	if size <= len(m.next) {
		return
	}
	next := make([]int32, size)
	for i := copy(next, m.next); i < size; i++ {
		next[i] = -1
	}
	inQueue := make([]bool, size)
	copy(inQueue, m.inQueue)
	m.next, m.inQueue = next, inQueue
}

// Queues returns the number of logical queues.
func (m *MultiQueue) Queues() int { return len(m.head) }

// Len returns the length of queue q.
func (m *MultiQueue) Len(q int) int { return m.count[q] }

// Total returns the number of nodes currently enqueued across all queues.
func (m *MultiQueue) Total() int { return m.total }

// Push appends node onto queue q. Pushing a node that is already in some
// queue panics (it would corrupt the links).
func (m *MultiQueue) Push(q, node int) {
	if m.inQueue[node] {
		panic(fmt.Sprintf("fifo: node %d already enqueued", node))
	}
	m.inQueue[node] = true
	m.next[node] = -1
	if m.tail[q] >= 0 {
		m.next[m.tail[q]] = int32(node)
	} else {
		m.head[q] = int32(node)
	}
	m.tail[q] = int32(node)
	m.count[q]++
	m.total++
}

// Pop removes and returns the front node of queue q; ok is false when the
// queue is empty.
func (m *MultiQueue) Pop(q int) (node int, ok bool) {
	h := m.head[q]
	if h < 0 {
		return 0, false
	}
	m.head[q] = m.next[h]
	if m.head[q] < 0 {
		m.tail[q] = -1
	}
	m.next[h] = -1
	m.inQueue[h] = false
	m.count[q]--
	m.total--
	return int(h), true
}

// Front returns the front node of queue q without removing it.
func (m *MultiQueue) Front(q int) (node int, ok bool) {
	if m.head[q] < 0 {
		return 0, false
	}
	return int(m.head[q]), true
}

// Snapshot returns the free stack in exact pop order (the last element is
// the next address Get will hand out). The order is determinism-critical:
// address allocation order feeds every downstream decision in the switch,
// so the checkpoint layer must reproduce it bit for bit. A growing list's
// snapshot starts with the addresses past its span, [Size-1 … Span], where
// a list holding all of them keeps them: the bytes do not depend on the
// span.
func (f *FreeList) Snapshot() []int32 {
	var st []int32
	if n := f.Free(); n > 0 {
		st = make([]int32, 0, n)
	}
	for a := f.size - 1; a >= len(f.out); a-- {
		st = append(st, int32(a))
	}
	return append(st, f.free...)
}

// RestoreState rebuilds the list from a snapshot taken on a peer of the
// same Size: every address in free becomes unallocated (in exactly this
// stack order), every address absent from it becomes allocated. The
// restored list spans all Size addresses.
func (f *FreeList) RestoreState(free []int32) error {
	if len(free) > f.size {
		return fmt.Errorf("fifo: free-list state has %d entries, list manages %d addresses", len(free), f.size)
	}
	seen := make([]bool, f.size)
	for _, a := range free {
		if a < 0 || int(a) >= f.size {
			return fmt.Errorf("fifo: free-list state holds out-of-range address %d", a)
		}
		if seen[a] {
			return fmt.Errorf("fifo: free-list state holds address %d twice", a)
		}
		seen[a] = true
	}
	f.growTo(f.size)
	f.free = append(f.free[:0], free...)
	for a := range f.out {
		f.out[a] = !seen[a]
	}
	return nil
}

// Do calls fn for each node of queue q, front to tail. It exists for the
// checkpoint layer, which must serialize queue contents in exact FIFO
// order; fn must not mutate the queue.
func (m *MultiQueue) Do(q int, fn func(node int)) {
	for n := m.head[q]; n >= 0; n = m.next[n] {
		fn(int(n))
	}
}

// InQueue reports whether node is currently enqueued in any queue.
func (m *MultiQueue) InQueue(node int) bool {
	return node >= 0 && node < len(m.inQueue) && m.inQueue[node]
}
