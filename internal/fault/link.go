package fault

import (
	"fmt"
	"slices"

	"pipemem/internal/cell"
	"pipemem/internal/core"
	"pipemem/internal/fifo"
	"pipemem/internal/obs"
)

// Link models a CRC-protected input link in front of the switch: the third
// defense layer. A cell transfer is word-serial (one word per cycle, K
// cycles per cell) with a CRC-16 trailer; the receiver buffers the whole
// cell and checks the CRC at the tail. On a mismatch — or a word lost
// outright — it NAKs, and the sender retransmits after an exponential
// backoff (2, 4, 8, … cycles), up to MaxRetries retransmissions before the
// cell is abandoned ("link failed"). The validated cell is handed to the
// switch as an ordinary head, so the link adds K cycles of store-and-check
// latency and the switch itself is oblivious to the protocol.
//
// Arrivals wait for the wire in a sender queue of (seq, dst) pairs — the
// open-loop form of back-pressure: the source is never slowed, so a
// saturated or bursty stream keeps its meaning and a retransmission shows
// as queueing delay. (Undisturbed, the queue is empty at every cycle
// boundary: a stream starts cells at least K cycles apart.)
//
// CRC-16 leaves a 2⁻¹⁶ escape probability per corrupted transfer; an
// escaped cell is delivered with its corrupted payload and counted under
// Corrupt — corruption is never silent.
type Link struct {
	cellWords  int
	wordBits   int
	maxRetries int
	input      int // this link's input port: Src of its cells, label of its events

	queue    *fifo.Ring[Pending] // arrivals waiting for the wire, oldest first
	sending  *cell.Cell          // cell being transferred, nil when idle
	wire     []cell.Word         // receiver's buffer of the in-flight copy
	lost     []bool              // words dropped on the wire this attempt
	crc      uint16              // trailer computed over the clean words at send time
	pos      int                 // words transferred so far this attempt
	attempts int                 // retransmissions used for the current cell
	resumeAt int64               // first cycle of the next (re)transmission

	// Retransmits counts NAK-triggered retransmissions; Failed counts
	// cells abandoned after exhausting MaxRetries; Delivered counts cells
	// handed to the switch, and Corrupt those of them whose payload a
	// corruption that slipped past the CRC had changed.
	Retransmits, Failed, Delivered, Corrupt int64

	// Mirrored registry counters and the typed event trace (Stage.Observe),
	// all nil-safe and nil by default.
	obsRetransmits *obs.Counter
	obsFailed      *obs.Counter
	tracer         *obs.Tracer
}

// Pending is an arrival waiting in a link's sender queue; the cell is built
// from it when its transfer begins.
type Pending struct {
	Seq uint64
	Dst int
}

// NewLink returns an idle link carrying cells of cellWords words of
// wordBits bits, giving each cell maxRetries retransmissions (≥ 0; a
// negative value means 4, a default that outlasts any plausible burst).
func NewLink(cellWords, wordBits, maxRetries int) *Link {
	if maxRetries < 0 {
		maxRetries = 4
	}
	return &Link{
		cellWords:  cellWords,
		wordBits:   wordBits,
		maxRetries: maxRetries,
		queue:      fifo.NewRing[Pending](0),
		wire:       make([]cell.Word, cellWords),
		lost:       make([]bool, cellWords),
	}
}

// Idle reports that no transfer is in progress.
func (l *Link) Idle() bool { return l.sending == nil }

// Offer starts transferring c; the first word goes on the wire at the next
// Tick. Offering to a busy link panics: Tick starts the next queued cell
// itself, and anything else driving a link must check Idle.
func (l *Link) Offer(c *cell.Cell, cycle int64) {
	if l.sending != nil {
		panic("fault: Offer on a busy link")
	}
	l.sending = c
	l.beginAttempt(cycle)
	l.attempts = 0
}

// beginAttempt resets the wire for a (re)transmission starting at cycle.
func (l *Link) beginAttempt(cycle int64) {
	copy(l.wire, l.sending.Words)
	clear(l.lost)
	l.crc = cell.CRC16(l.sending.Words)
	l.pos = 0
	l.resumeAt = cycle
}

// Tick advances the link one cycle. When the tail word's CRC check passes
// it returns the cell it was sending — carrying what the wire carried — to
// be injected into the switch as this cycle's head on the link's input;
// otherwise it returns nil. An abandoned cell goes back to pool, and an
// idle link starts on the next queued arrival, built from pool.
func (l *Link) Tick(cycle int64, pool *cell.Pool) *cell.Cell {
	var head *cell.Cell
	if l.sending != nil && cycle >= l.resumeAt {
		if l.pos++; l.pos == l.cellWords {
			head = l.tail(cycle, pool)
		}
	}
	if l.sending == nil {
		if p, ok := l.queue.Pop(); ok {
			l.Offer(pool.New(p.Seq, l.input, p.Dst, l.wordBits), cycle)
		}
	}
	return head
}

// tail is the receiver's verdict on a completed attempt.
func (l *Link) tail(cycle int64, pool *cell.Pool) *cell.Cell {
	c := l.sending
	if cell.CRC16(l.wire) == l.crc && !slices.Contains(l.lost, true) {
		// Deliver what the wire carried. The switch will vouch for this
		// cell as it leaves here, so a corruption that slipped past the CRC
		// (a 2⁻¹⁶ collision) has to be counted now, against the words sent.
		if !slices.Equal(l.wire, c.Words) {
			l.Corrupt++
			copy(c.Words, l.wire)
		}
		l.sending = nil
		l.Delivered++
		return c
	}
	// NAK: retransmit after exponential backoff, or give up.
	l.attempts++
	if l.attempts > l.maxRetries {
		l.sending = nil
		pool.Put(c)
		l.Failed++
		l.obsFailed.Inc()
		return nil
	}
	l.Retransmits++
	l.obsRetransmits.Inc()
	l.tracer.Emit(obs.Event{Kind: obs.EvCRCRetransmit, Cycle: cycle,
		In: int32(l.input), Out: -1, Addr: -1, V: int64(l.attempts)})
	l.beginAttempt(cycle + 1 + int64(1)<<uint(l.attempts))
	return nil
}

// active reports that words of the current attempt are on the wire.
func (l *Link) active() bool { return l.sending != nil && l.pos > 0 }

// hit resolves the word a link fault targets (Any = the word put on the
// wire this cycle); ok is false when no transfer is there to be hit.
func (l *Link) hit(word int) (int, bool) {
	if word == Any {
		word = l.pos - 1
	}
	return word, l.active() && word >= 0 && word < l.cellWords
}

// CorruptWord XORs mask (0: bit 0) into word `word` of the transfer in
// flight (Any = the word put on the wire this cycle). It reports whether a
// transfer was actually hit: not when mask, cut to the word width, is zero.
func (l *Link) CorruptWord(word int, mask cell.Word) bool {
	if mask == 0 {
		mask = 1
	}
	word, ok := l.hit(word)
	if mask = mask.Mask(l.wordBits); !ok || mask == 0 {
		return false
	}
	l.wire[word] ^= mask
	return true
}

// DropWord marks word `word` of the transfer in flight as lost on the wire
// (Any = the word put on the wire this cycle). It reports whether a
// transfer was actually hit.
func (l *Link) DropWord(word int) bool {
	word, ok := l.hit(word)
	if ok {
		l.lost[word] = true
	}
	return ok
}

// Stage is the row of CRC links in front of a switch's inputs, one per
// port: the core.HeadStage a link-protected run installs on its Runner,
// and the Target.Links its fault engine injects into.
type Stage struct{ Links []*Link }

// NewStage builds idle links for a switch of geometry g, each cell with
// maxRetries retransmissions (≤ 0 means the default of 4; use the Link
// type directly for a no-retry protocol).
func NewStage(g core.Geometry, maxRetries int) *Stage {
	if maxRetries <= 0 {
		maxRetries = 4
	}
	st := &Stage{Links: make([]*Link, g.Ports)}
	for i := range st.Links {
		st.Links[i] = NewLink(g.CellWords, g.WordBits, maxRetries)
		st.Links[i].input = i
	}
	return st
}

// Observe mirrors the links' retransmissions and failures into o's registry
// counters and emits EvCRCRetransmit events on its tracer.
func (st *Stage) Observe(o *core.Observer) {
	for _, l := range st.Links {
		l.obsRetransmits, l.obsFailed, l.tracer = o.LinkRetransmits, o.LinkFailed, o.Tracer
	}
}

// Offer implements core.HeadStage.
func (st *Stage) Offer(in int, seq uint64, dst int) {
	st.Links[in].queue.Push(Pending{seq, dst})
}

// Tick implements core.HeadStage.
func (st *Stage) Tick(cycle int64, heads []*cell.Cell, pool *cell.Pool) {
	for i, l := range st.Links {
		heads[i] = l.Tick(cycle, pool)
	}
}

// Held implements core.HeadStage: cells queued or on a wire.
func (st *Stage) Held() (n int) {
	for _, l := range st.Links {
		if n += l.queue.Len(); l.sending != nil {
			n++
		}
	}
	return n
}

// Failed implements core.HeadStage.
func (st *Stage) Failed() (n int64) {
	for _, l := range st.Links {
		n += l.Failed
	}
	return n
}

// LinkState is one link's checkpointed state. Seq and Dst name the cell in
// transfer (Seq 0: none — the rest but the tallies is then empty); its
// clean words and the trailer are rebuilt from them, Wire and Lost are the
// receiver's side of the attempt under way.
type LinkState struct {
	Seq      uint64      `json:",omitempty"`
	Dst      int         `json:",omitempty"`
	Wire     []cell.Word `json:",omitempty"`
	Lost     []bool      `json:",omitempty"`
	Pos      int         `json:",omitempty"`
	Attempts int         `json:",omitempty"`
	ResumeAt int64       `json:",omitempty"`
	Queue    []Pending   `json:",omitempty"`

	Retransmits, Failed, Delivered, Corrupt int64
}

// StageState is the checkpointed state of a Stage.
type StageState struct {
	MaxRetries int
	Links      []LinkState
}

// State exports the stage for checkpointing.
func (st *Stage) State() *StageState {
	out := &StageState{MaxRetries: st.Links[0].maxRetries, Links: make([]LinkState, len(st.Links))}
	for i, l := range st.Links {
		ls := LinkState{Retransmits: l.Retransmits, Failed: l.Failed, Delivered: l.Delivered, Corrupt: l.Corrupt}
		if c := l.sending; c != nil {
			ls.Seq, ls.Dst, ls.Pos, ls.Attempts, ls.ResumeAt = c.Seq, c.Dst, l.pos, l.attempts, l.resumeAt
			ls.Wire, ls.Lost = slices.Clone(l.wire), slices.Clone(l.lost)
		}
		for j := 0; j < l.queue.Len(); j++ {
			p, _ := l.queue.At(j)
			ls.Queue = append(ls.Queue, p)
		}
		out.Links[i] = ls
	}
	return out
}

// RestoreStage rebuilds a stage for a switch of geometry g from a
// checkpoint taken at the given cycle, by when the run had numbered its
// arrivals up to offered. The state comes from a file: anything a running
// stage could not have held is refused here, before the first Tick.
func RestoreStage(g core.Geometry, st *StageState, cycle int64, offered uint64) (*Stage, error) {
	if st.MaxRetries < 1 || st.MaxRetries > 62 || len(st.Links) != g.Ports {
		return nil, fmt.Errorf("fault: link state for %d links with %d retries, switch has %d ports", len(st.Links), st.MaxRetries, g.Ports)
	}
	out := NewStage(g, st.MaxRetries)
	seen := make(map[uint64]bool)
	for i, ls := range st.Links {
		bad := func(format string, args ...any) error {
			return fmt.Errorf("fault: link %d state: %s", i, fmt.Sprintf(format, args...))
		}
		// claim takes a held cell's identity: a destination the switch has,
		// and a number the run has issued, to this link in this order, once.
		last := uint64(0)
		claim := func(seq uint64, dst int) error {
			if dst < 0 || dst >= g.Ports || seq <= last || seq > offered || seen[seq] {
				return bad("cell seq=%d dst=%d is out of range, out of order or held twice (%d cells offered)", seq, dst, offered)
			}
			last, seen[seq] = seq, true
			return nil
		}
		l := out.Links[i]
		l.Retransmits, l.Failed, l.Delivered, l.Corrupt = ls.Retransmits, ls.Failed, ls.Delivered, ls.Corrupt
		if ls.Retransmits < 0 || ls.Failed < 0 || ls.Delivered < 0 || ls.Corrupt < 0 || ls.Corrupt > ls.Delivered {
			return nil, bad("negative or inconsistent tallies")
		}
		if ls.Seq == 0 {
			// Tick never leaves a link idle with arrivals waiting.
			if ls.Pos != 0 || ls.Attempts != 0 || len(ls.Wire)+len(ls.Lost)+len(ls.Queue) != 0 {
				return nil, bad("idle link holds transfer state or a queue")
			}
			continue
		}
		if len(ls.Wire) != g.CellWords || len(ls.Lost) != g.CellWords {
			return nil, bad("wire of %d words and lost mask of %d, cells have %d", len(ls.Wire), len(ls.Lost), g.CellWords)
		}
		if ls.Pos < 0 || ls.Pos >= g.CellWords || ls.Attempts < 0 || ls.Attempts > st.MaxRetries {
			return nil, bad("position %d of %d words, attempt %d of %d", ls.Pos, g.CellWords, ls.Attempts, st.MaxRetries)
		}
		// A backoff was set at most one cycle ago and lasts 2^attempts.
		if ls.ResumeAt > cycle+int64(1)<<uint(ls.Attempts) {
			return nil, bad("resumes at cycle %d, checkpoint is at %d", ls.ResumeAt, cycle)
		}
		if slices.ContainsFunc(ls.Wire, func(w cell.Word) bool { return w != w.Mask(g.WordBits) }) {
			return nil, bad("a wire word is wider than %d bits", g.WordBits)
		}
		if err := claim(ls.Seq, ls.Dst); err != nil {
			return nil, err
		}
		l.Offer(cell.New(ls.Seq, i, ls.Dst, g.CellWords, g.WordBits), ls.ResumeAt)
		copy(l.wire, ls.Wire)
		copy(l.lost, ls.Lost)
		l.pos, l.attempts = ls.Pos, ls.Attempts
		for _, p := range ls.Queue {
			if err := claim(p.Seq, p.Dst); err != nil {
				return nil, err
			}
			l.queue.Push(p)
		}
	}
	return out, nil
}
