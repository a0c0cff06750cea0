// Package telegraphos assembles the three prototype switches of §4 of the
// paper around the pipelined memory shared buffer of internal/core:
//
//	Telegraphos I    4×4, 8-bit links at 13.3 MHz (≈107 Mb/s/link),
//	                 8-byte packets, 8 pipeline stages, FPGA + SRAM (§4.1)
//	Telegraphos II   4×4, 16-bit links at 25 MHz / 40 ns (400 Mb/s/link),
//	                 16-byte packets, 8 stages of 256×16 compiled SRAM,
//	                 0.7 µm standard-cell ASIC (§4.2)
//	Telegraphos III  8×8, 16-bit links at 16 ns worst case (1 Gb/s/link,
//	                 1.6 Gb/s typical), 32-byte packets, 16 stages,
//	                 256-cell (64 Kbit) buffer, 1.0 µm full custom (§4.4)
//
// Around the buffer, the package models the blocks the fig. 6 floorplan
// names: the routing/translation memory (RT) that maps incoming packet
// headers to outgoing links, the untranslated header memory (HM), and
// credit-based flow control on the outgoing links ([Kate94], [KVES95]).
package telegraphos

import (
	"fmt"

	"pipemem/internal/analytic"
	"pipemem/internal/cell"
	"pipemem/internal/core"
)

// Model describes one Telegraphos prototype generation.
type Model struct {
	Name       string
	Technology string
	// Ports is n (incoming = outgoing links).
	Ports int
	// WordBits is the on-chip link width per clock.
	WordBits int
	// ClockNs is the (worst-case) clock period.
	ClockNs float64
	// TypicalClockNs is the typical-case period (0 if unpublished).
	TypicalClockNs float64
	// Stages is the pipeline depth K; PacketBytes = Stages·WordBits/8.
	Stages int
	// Cells is the buffer capacity in packets.
	Cells int
}

// TelegraphosI returns the §4.1 FPGA prototype model.
func TelegraphosI() Model {
	return Model{
		Name:       "Telegraphos I",
		Technology: "Xilinx 3100 FPGAs + SRAM",
		Ports:      4,
		WordBits:   8,
		ClockNs:    1000.0 / 13.3, // 13.3 MHz
		Stages:     8,
		Cells:      2048, // 8 discrete SRAM chips; capacity generous
	}
}

// TelegraphosII returns the §4.2 standard-cell ASIC model.
func TelegraphosII() Model {
	return Model{
		Name:       "Telegraphos II",
		Technology: "ES2 0.7um standard-cell ASIC",
		Ports:      4,
		WordBits:   16,
		ClockNs:    40,
		Stages:     8,
		Cells:      256, // each stage a 256×16 compiled SRAM
	}
}

// TelegraphosIII returns the §4.4 full-custom model.
func TelegraphosIII() Model {
	return Model{
		Name:           "Telegraphos III",
		Technology:     "ES2 1.0um full-custom CMOS",
		Ports:          8,
		WordBits:       16,
		ClockNs:        16,
		TypicalClockNs: 10,
		Stages:         16,
		Cells:          256,
	}
}

// Models returns all three prototypes in order.
func Models() []Model {
	return []Model{TelegraphosI(), TelegraphosII(), TelegraphosIII()}
}

// PacketBytes returns the packet size in bytes (Stages words of WordBits).
func (m Model) PacketBytes() int { return m.Stages * m.WordBits / 8 }

// LinkMbps returns the per-link throughput in Mb/s at the worst-case
// clock.
func (m Model) LinkMbps() float64 { return analytic.LinkMbps(m.WordBits, m.ClockNs) }

// LinkGbpsTypical returns the per-link throughput at the typical clock
// (0 if no typical figure is published).
func (m Model) LinkGbpsTypical() float64 {
	if m.TypicalClockNs == 0 {
		return 0
	}
	return analytic.LinkGbps(m.WordBits, m.TypicalClockNs)
}

// AggregateGbps returns the shared-buffer throughput: the full buffer
// width cycles once per clock.
func (m Model) AggregateGbps() float64 {
	return analytic.AggregateGbps(m.Stages*m.WordBits, m.ClockNs)
}

// BufferKbit returns the buffer capacity in Kbit (T3: 64).
func (m Model) BufferKbit() float64 {
	return float64(m.Stages*m.Cells*m.WordBits) / 1024
}

// SwitchConfig returns the core configuration for this model.
func (m Model) SwitchConfig() core.Config {
	return core.Config{
		Ports:      m.Ports,
		Stages:     m.Stages,
		WordBits:   m.WordBits,
		Cells:      m.Cells,
		CutThrough: true,
	}
}

// String implements fmt.Stringer with the headline figures.
func (m Model) String() string {
	return fmt.Sprintf("%s: %d×%d, %d b/link/clk @ %.1f ns → %.0f Mb/s/link, packets %d B, %d stages, buffer %.0f Kbit",
		m.Name, m.Ports, m.Ports, m.WordBits, m.ClockNs, m.LinkMbps(), m.PacketBytes(), m.Stages, m.BufferKbit())
}

// Packet is what arrives on a Telegraphos link: a header word carrying a
// destination address that the switch translates, plus payload words.
type Packet struct {
	// Header is the untranslated destination address (virtual address of
	// the remote-write in Telegraphos' memory-mapped communication).
	Header uint64
	// Payload is the packet body, exactly Stages-1 words.
	Payload []cell.Word
	// Seq identifies the packet for integrity accounting.
	Seq uint64
	// VC is the packet's virtual channel ([KVES95]); 0 when the switch
	// was built without VCs.
	VC int
}

// Switch is a Telegraphos switch: the pipelined-memory shared buffer plus
// routing translation and credit-based flow control.
type Switch struct {
	model Model
	core  *core.Switch

	// rt is the routing/translation memory: header → outgoing link.
	rt []int
	// mrt maps headers to multicast groups (additional outputs beyond
	// the primary) — the [Turn93]-style descriptor multicast the shared
	// buffer supports at one stored copy per packet.
	mrt map[uint64][]int
	// hm is the untranslated header memory, one entry per buffer cell —
	// fig. 6's HM block (diagnostics and, in the real system, protection
	// checks).
	hm map[uint64]uint64 // seq → header

	// credits[o] is the number of packets output o may still send
	// downstream ([KVES95] credit-based flow control). With VCs, the
	// accounting moves to vcCredits[o][vc] instead: each virtual channel
	// has its own allowance, so one stalled receiver queue cannot idle
	// the whole link.
	credits    []int
	maxCredits int

	vcs          int
	vcCredits    [][]int
	maxVCCredits int

	// creditDelay models the reverse-channel round trip: a credit
	// returned at cycle c becomes usable at c+creditDelay. pendingCr
	// holds in-flight returns keyed by due cycle.
	creditDelay int64
	pendingCr   map[int64][]creditReturn
	cycle       int64
}

// creditReturn is one credit in flight on the reverse channel.
type creditReturn struct {
	out, vc int
	perVC   bool
}

// NewSwitch builds a model's switch with the given per-link credit
// allowance (0 disables flow control).
func NewSwitch(m Model, creditsPerLink int) (*Switch, error) {
	return newSwitch(m, 1, creditsPerLink, false)
}

// NewVCSwitch builds a model's switch with vcs virtual channels per
// outgoing link and a per-VC credit allowance — the [KVES95]
// organization: per-(output, VC) descriptor queues served round-robin,
// each VC flow-controlled independently.
func NewVCSwitch(m Model, vcs, creditsPerVC int) (*Switch, error) {
	if vcs < 1 {
		return nil, fmt.Errorf("telegraphos: %d VCs", vcs)
	}
	return newSwitch(m, vcs, creditsPerVC, true)
}

func newSwitch(m Model, vcs, credits int, perVC bool) (*Switch, error) {
	cfg := m.SwitchConfig()
	cfg.VCs = vcs
	cs, err := core.New(cfg)
	if err != nil {
		return nil, err
	}
	s := &Switch{
		model: m,
		core:  cs,
		rt:    make([]int, 1<<12),
		mrt:   make(map[uint64][]int),
		hm:    make(map[uint64]uint64),
		vcs:   vcs,
	}
	for i := range s.rt {
		s.rt[i] = i % m.Ports // identity-ish default mapping
	}
	switch {
	case perVC && credits > 0:
		s.maxVCCredits = credits
		s.vcCredits = make([][]int, m.Ports)
		for o := range s.vcCredits {
			s.vcCredits[o] = make([]int, vcs)
			for v := range s.vcCredits[o] {
				s.vcCredits[o][v] = credits
			}
		}
		cs.SetVCGate(func(out, vc int) bool { return s.vcCredits[out][vc] > 0 })
		cs.SetTransmitCellHook(func(out int, c *cell.Cell, _ int64) {
			s.vcCredits[out][c.VC]--
		})
	case credits > 0:
		s.maxCredits = credits
		s.credits = make([]int, m.Ports)
		for o := range s.credits {
			s.credits[o] = credits
		}
		cs.SetTransmitCellHook(func(out int, _ *cell.Cell, _ int64) { s.addCredit(out, -1) })
	}
	if s.credits == nil {
		s.credits = make([]int, m.Ports)
	}
	s.pendingCr = make(map[int64][]creditReturn)
	return s, nil
}

// addCredit is the one place a link's credit count moves; it drives the
// core's output gate to the resulting level (open while credits remain).
func (s *Switch) addCredit(out, d int) {
	s.credits[out] += d
	s.core.SetOutputOpen(out, s.credits[out] > 0)
}

// SetCreditDelay sets the reverse-channel latency, in cycles, between a
// ReturnCredit call and the credit becoming usable. Credit-based links
// sustain full rate only when the allowance covers the round trip:
// credits ≥ ⌈(forward cell time + delay) / cell time⌉ — the bandwidth-
// delay product rule that sizes the [KVES95] credit counters.
func (s *Switch) SetCreditDelay(cycles int64) {
	if cycles < 0 {
		cycles = 0
	}
	s.creditDelay = cycles
}

// Model returns the prototype description.
func (s *Switch) Model() Model { return s.model }

// Core exposes the underlying pipelined-memory switch (read-only use:
// counters, latency, drains).
func (s *Switch) Core() *core.Switch { return s.core }

// SetRoute programs one RT entry: packets whose header hashes to slot
// route to output out.
func (s *Switch) SetRoute(header uint64, out int) error {
	if out < 0 || out >= s.model.Ports {
		return fmt.Errorf("telegraphos: output %d out of range", out)
	}
	s.rt[header%uint64(len(s.rt))] = out
	return nil
}

// Route returns the outgoing link for a header (the RT lookup).
func (s *Switch) Route(header uint64) int {
	return s.rt[header%uint64(len(s.rt))]
}

// SetMulticastRoute programs a header to fan out to a group of outputs
// (the first is the primary, the rest extra copies). The packet is stored
// once; descriptors fan out per output.
func (s *Switch) SetMulticastRoute(header uint64, outs ...int) error {
	if len(outs) == 0 {
		return fmt.Errorf("telegraphos: empty multicast group")
	}
	for _, o := range outs {
		if o < 0 || o >= s.model.Ports {
			return fmt.Errorf("telegraphos: output %d out of range", o)
		}
	}
	if err := s.SetRoute(header, outs[0]); err != nil {
		return err
	}
	s.mrt[header%uint64(len(s.rt))] = append([]int(nil), outs[1:]...)
	return nil
}

// Credits returns the current credit count of an output link
// (link-level flow control only).
func (s *Switch) Credits(out int) int { return s.credits[out] }

// VCCredits returns the credit count of (out, vc); 0 when the switch was
// built without VC flow control.
func (s *Switch) VCCredits(out, vc int) int {
	if s.vcCredits == nil {
		return 0
	}
	return s.vcCredits[out][vc]
}

// ReturnVCCredit hands one credit back to (out, vc), capped at the
// allowance and subject to the configured credit delay.
func (s *Switch) ReturnVCCredit(out, vc int) {
	if s.vcCredits == nil {
		return
	}
	if s.creditDelay > 0 {
		due := s.cycle + s.creditDelay
		s.pendingCr[due] = append(s.pendingCr[due], creditReturn{out: out, vc: vc, perVC: true})
		return
	}
	if s.vcCredits[out][vc] < s.maxVCCredits {
		s.vcCredits[out][vc]++
	}
}

// ReturnCredit hands one credit back to an output link (the downstream
// receiver freed a buffer). It caps at the configured allowance and, with
// a credit delay configured, takes effect after the reverse-channel
// round trip.
func (s *Switch) ReturnCredit(out int) {
	if s.maxCredits == 0 {
		return
	}
	if s.creditDelay > 0 {
		due := s.cycle + s.creditDelay
		s.pendingCr[due] = append(s.pendingCr[due], creditReturn{out: out})
		return
	}
	if s.credits[out] < s.maxCredits {
		s.addCredit(out, 1)
	}
}

// Tick advances one clock cycle. pkts[i], when non-nil, is a packet whose
// header word arrives at input i this cycle.
func (s *Switch) Tick(pkts []*Packet) {
	// Deliver reverse-channel credits that completed their round trip.
	if rs, ok := s.pendingCr[s.cycle]; ok {
		for _, r := range rs {
			if r.perVC {
				if s.vcCredits != nil && s.vcCredits[r.out][r.vc] < s.maxVCCredits {
					s.vcCredits[r.out][r.vc]++
				}
			} else if s.credits[r.out] < s.maxCredits {
				s.addCredit(r.out, 1)
			}
		}
		delete(s.pendingCr, s.cycle)
	}
	s.cycle++
	var heads []*cell.Cell
	if pkts != nil {
		heads = make([]*cell.Cell, s.model.Ports)
		for i, p := range pkts {
			if p == nil {
				continue
			}
			if len(p.Payload) != s.model.Stages-1 {
				panic(fmt.Sprintf("telegraphos: payload of %d words, want %d", len(p.Payload), s.model.Stages-1))
			}
			out := s.Route(p.Header)
			s.hm[p.Seq] = p.Header
			words := make([]cell.Word, 0, s.model.Stages)
			words = append(words, cell.Word(p.Header).Mask(s.model.WordBits))
			words = append(words, p.Payload...)
			heads[i] = &cell.Cell{Seq: p.Seq, Src: i, Dst: out, VC: p.VC, Words: words}
			if extra, ok := s.mrt[p.Header%uint64(len(s.rt))]; ok && len(extra) > 0 {
				heads[i].Copies = append([]int(nil), extra...)
			}
		}
	}
	s.core.Tick(heads)
}

// Drain returns completed departures and clears the corresponding header
// memory entries.
func (s *Switch) Drain() []core.Departure {
	deps := s.core.Drain()
	for _, d := range deps {
		delete(s.hm, d.Expected.Seq)
	}
	return deps
}

// PendingHeaders returns the number of packets whose headers are held in
// HM (in flight through the switch).
func (s *Switch) PendingHeaders() int { return len(s.hm) }
