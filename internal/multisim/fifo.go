package multisim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// FIFO is the first-in-first-out size column at a fixed way count.
// FIFO has no inclusion property (insertion order, not recency, picks
// victims), so every member carries full state; the kernel shares the
// block decode and the access clock. The clock is shared safely because
// every member sees every reference: per-cell simulations would tick
// identical clocks.
type FIFO struct {
	lineShift int
	ways      int
	clock     uint64
	members   []fifoMember
	order     []int
	accesses  uint64
}

type fifoMember struct {
	setMask uint64
	// slots is the way state, set-major with a set's ways contiguous, so
	// one probe touches one cache line. Fills take the first empty way,
	// so a set's valid ways are a prefix of it.
	slots  []fifoWay
	hits   uint64
	fills  uint64
	evicts uint64
}

// fifoWay is one way: its block and its fill time. The clock ticks
// before every fill, so a stamp of 0 marks a way never filled.
type fifoWay struct{ tag, stamp uint64 }

// NewFIFO builds a FIFO column over the given sizes (any order,
// duplicates allowed); Outcomes reports in the same order.
func NewFIFO(line uint64, sizes []uint64, ways int) (*FIFO, error) {
	if err := Validate(line, sizes, ways); err != nil {
		return nil, err
	}
	c := &FIFO{
		lineShift: bits.TrailingZeros64(line),
		ways:      ways,
		members:   make([]fifoMember, len(sizes)),
		order:     ascendingSizes(sizes),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / (line * uint64(ways))
		c.members[k] = fifoMember{
			setMask: nsets - 1,
			slots:   make([]fifoWay, nsets*uint64(ways)),
		}
	}
	return c, nil
}

// Batch advances every member over the chunk, mirroring
// cache.SetAssoc's FIFO semantics: the clock ticks once per access
// (hits included), a hit touches nothing, and a miss fills the first
// invalid way or evicts the minimum-stamp way, stamping the fill with
// the current clock. Victim scan order matches SetAssoc's way order.
//
//dynexcheck:hot
func (c *FIFO) Batch(refs []trace.Ref) {
	c.accesses += uint64(len(refs))
	if len(c.members) == 1 {
		c.batchOne(refs)
		return
	}
	members := c.members
	shift := c.lineShift
	ways := c.ways
	clock := c.clock
	for i := range refs {
		clock++
		block := refs[i].Addr >> shift
		for k := range members {
			m := &members[k]
			base := int(block&m.setMask) * ways
			if fifoProbe(m.slots[base:base+ways], block, clock, &m.evicts) {
				m.hits++
			} else {
				m.fills++
			}
		}
	}
	c.clock = clock
}

// batchOne is Batch for a one-member column, the shape every single
// fifo cell runs as: the member's slots and the clock sit in locals,
// and the counters accumulate in locals until the chunk ends.
//
//dynexcheck:hot
func (c *FIFO) batchOne(refs []trace.Ref) {
	m := &c.members[0]
	slots := m.slots
	shift, mask, ways := c.lineShift, m.setMask, c.ways
	clock := c.clock
	var hits, fills, evicts uint64
	for i := range refs {
		clock++
		base := int(refs[i].Addr>>shift&mask) * ways
		if fifoProbe(slots[base:base+ways], refs[i].Addr>>shift, clock, &evicts) {
			hits++
		} else {
			fills++
		}
	}
	c.clock = clock
	m.hits += hits
	m.fills += fills
	m.evicts += evicts
}

// fifoProbe looks block up in one set and reports a hit; on a miss it
// fills the first empty way, or evicts the oldest fill (counting it in
// *evicts), stamping the fill with clock.
//
//dynexcheck:hot
func fifoProbe(set []fifoWay, block, clock uint64, evicts *uint64) bool {
	victim := -1
	for w := range set {
		if set[w].stamp == 0 {
			victim = w
			break
		}
		if set[w].tag == block {
			return true
		}
	}
	if victim < 0 {
		victim = 0
		for w := 1; w < len(set); w++ {
			if set[w].stamp < set[victim].stamp {
				victim = w
			}
		}
		*evicts++
	}
	set[victim] = fifoWay{tag: block, stamp: clock}
	return false
}

// Outcomes returns cumulative per-member stats in constructor size
// order. Set-associative caches never bypass: misses equal fills.
func (c *FIFO) Outcomes() []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(c.members))
	for k := range c.members {
		m := &c.members[k]
		outs[c.order[k]] = engine.ColumnOutcome{Stats: cache.Stats{
			Accesses:  c.accesses,
			Hits:      m.hits,
			Misses:    m.fills,
			Fills:     m.fills,
			Evictions: m.evicts,
		}}
	}
	return outs
}
