package multisim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// DM is the direct-mapped size column: every power-of-two size of a
// dm cell sharing one line size, simulated in a single pass.
type DM struct {
	lineShift int
	members   []dmMember // ascending by size
	order     []int      // order[k]: member k's position in the constructor's sizes
	accesses  uint64
}

type dmMember struct {
	setMask uint64
	tags    []uint64
	valid   []bool
	hits    uint64
	fills   uint64
	evicts  uint64
}

// NewDM builds a direct-mapped column over the given sizes (any order,
// duplicates allowed); Outcomes reports in the same order.
func NewDM(line uint64, sizes []uint64) (*DM, error) {
	if err := Validate(line, sizes, 1); err != nil {
		return nil, err
	}
	c := &DM{
		lineShift: bits.TrailingZeros64(line),
		members:   make([]dmMember, len(sizes)),
		order:     ascendingSizes(sizes),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / line
		c.members[k] = dmMember{
			setMask: nsets - 1,
			tags:    make([]uint64, nsets),
			valid:   make([]bool, nsets),
		}
	}
	return c, nil
}

// Batch advances every member over the chunk. Direct-mapped bit
// selection is 1-way LRU, so inclusion holds across power-of-two sizes:
// the probe walks members ascending, handles misses (fill + possible
// eviction) until the first hit, and every larger member is a hit with
// no state change (a direct-mapped hit mutates nothing). The
// conformance column battery pins the equivalence per cell.
//
//dynexcheck:hot
func (c *DM) Batch(refs []trace.Ref) {
	c.accesses += uint64(len(refs))
	if len(c.members) == 1 {
		c.batchOne(refs)
		return
	}
	members := c.members
	shift := c.lineShift
	for i := range refs {
		block := refs[i].Addr >> shift
		k := 0
		for ; k < len(members); k++ {
			m := &members[k]
			set := block & m.setMask
			if m.valid[set] && m.tags[set] == block {
				break
			}
			if m.valid[set] {
				m.evicts++
			} else {
				m.valid[set] = true
			}
			m.tags[set] = block
			m.fills++
		}
		for ; k < len(members); k++ {
			members[k].hits++
		}
	}
}

// batchOne is Batch for a one-member column, the shape every single
// cell runs as: one probe per reference with no early-out walk, and the
// counters held in locals until the chunk ends.
//
//dynexcheck:hot
func (c *DM) batchOne(refs []trace.Ref) {
	m := &c.members[0]
	shift, mask := c.lineShift, m.setMask
	// Sliced to mask+1 so the compiler drops most per-probe bounds checks.
	tags, valid := m.tags[:mask+1], m.valid[:mask+1]
	var hits, fills, evicts uint64
	for i := range refs {
		block := refs[i].Addr >> shift
		set := block & mask
		if valid[set] {
			if tags[set] == block {
				hits++
				continue
			}
			evicts++
		} else {
			valid[set] = true
		}
		tags[set] = block
		fills++
	}
	m.hits += hits
	m.fills += fills
	m.evicts += evicts
}

// Outcomes returns cumulative per-member stats in constructor size
// order. Direct-mapped caches never bypass: misses equal fills.
func (c *DM) Outcomes() []engine.ColumnOutcome {
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
