package engine

import (
	"runtime"
	"sync/atomic"

	"pipemem/internal/cell"
	"pipemem/internal/obs"
)

// shard is one worker's slice of the fabric plus its staging queues. A
// shard owns a contiguous, 64-node-aligned range of global node indexes
// [lo<<6, hi<<6): whole words of the occupancy bitmaps, so shard-local
// mask updates are plain stores. Everything a node's transmit hooks would
// mutate outside the shard — credit releases, head arrivals at nodes
// owned by other shards, ejections, errors — is staged here and merged by
// the coordinator at the end-of-cycle barrier, in shard order; with
// shards assigned in ascending node order, the merge order equals global
// node order and the result is independent of the worker count.
type shard struct {
	lo, hi int // bitmap word range owned by this shard

	// rel stages credit releases (packed link indexes) for the barrier.
	// Within one cycle a release is only observable by gates that the
	// sequential stage order would run earlier, so deferring every
	// release to the barrier is bit-identical to the sequential engine.
	rel []int32

	// arr stages head-arrival bits for cycle+2 (one bit per destination
	// node, over the whole fabric — hooks routinely cross shard
	// boundaries). The coordinator ORs it into the canonical mask.
	arr []uint64

	// ejects stages the last stage's departures, handed over by the nodes'
	// departure sinks in ascending node order.
	ejects []ejectRec

	// drops stages cells lost inside a node this cycle (overrun, policy,
	// push-out): the coordinator retires the flight, releases the dead
	// cell's inbound credit, and recycles the victim.
	drops []dropRec

	// spans stages hop records of traced flights (appended in the shard's
	// tick order = ascending node order) for the barrier's trace flush.
	spans []spanRec

	// hop is the shard's per-stage hop-latency shadow (nil unless
	// RegisterHopHists armed it); flushed by the coordinator.
	hop []*obs.HistShadow

	// err is the shard's first staged error (duplicate heads, transmits
	// on unroutable outputs); the coordinator surfaces it from Step.
	err error

	_ [64]byte // keep shards off each other's cache lines
}

// ejectRec is one cell leaving the fabric: what a last-stage node's
// departure sink hands over, staged by value for the barrier's verification
// (Engine.eject).
type ejectRec struct {
	c         *cell.Cell
	node, out int32
	// headIn and headOut are the cycles the head entered and left the node.
	headIn, headOut int64
	// intact reports that the words on the link equal the injected cell's.
	intact bool
}

type dropRec struct {
	c    *cell.Cell
	node int32
}

func (sh *shard) fail(err error) {
	if sh.err == nil {
		sh.err = err
	}
}

// The cyclic barrier: one generation per simulated cycle. The coordinator
// bumps gen to release the workers, participates as shard 0, then waits
// for the done count. Atomic generation/done counters give the
// happens-before edges that make cross-shard ring and mask writes visible
// (and race-detector-clean) two cycles later; workers yield between polls
// so a single-core host still interleaves them.
type barrier struct {
	gen  atomic.Int64
	done atomic.Int64
}

// startWorkers launches the persistent worker goroutines (shards 1..nw-1).
// Workers park in a Gosched poll loop between cycles; Close releases them.
func (e *Engine) startWorkers() {
	for w := 1; w < e.nw; w++ {
		go e.workerLoop(w)
	}
}

func (e *Engine) workerLoop(w int) {
	var seen int64
	for {
		g := e.bar.gen.Load()
		if g < 0 {
			return
		}
		if g == seen {
			runtime.Gosched()
			continue
		}
		seen = g
		e.runShard(w)
		e.bar.done.Add(1)
	}
}

// parallelCycle runs every shard for the current cycle and returns once
// all have reached the barrier.
func (e *Engine) parallelCycle() {
	if e.nw == 1 {
		e.runShard(0)
		return
	}
	e.bar.done.Store(0)
	e.bar.gen.Add(1)
	e.runShard(0)
	for e.bar.done.Load() != int64(e.nw-1) {
		runtime.Gosched()
	}
}

// Close stops the worker goroutines. The engine must not be stepped after
// Close; calling Close more than once (or on a single-shard engine) is a
// no-op.
func (e *Engine) Close() {
	if e.closed {
		return
	}
	e.closed = true
	if e.nw > 1 {
		e.bar.gen.Store(-1)
	}
}
