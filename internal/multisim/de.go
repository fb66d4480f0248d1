package multisim

import (
	"fmt"
	"math/bits"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/trace"
)

// DEConfig carries the dynamic-exclusion options a policy spec resolves
// for a column. Every member of the column shares one configuration;
// only the geometry (and therefore the per-member hit-last store
// capacity) varies down the column.
type DEConfig struct {
	// StickyMax is the sticky-counter reset value (1..255).
	StickyMax int
	// Hashed selects the hashed hit-last store; Bits is its size in
	// bits per cache line (ignored for the ideal table store).
	Hashed bool
	Bits   int
	// AssumeHit is the cold-start hit-last prediction (the store's
	// default bit).
	AssumeHit bool
	// LastLine enables the §6 last-line register, already resolved
	// against the column's line size by the caller.
	LastLine bool
}

// DE is the dynamic-exclusion size column. DE has no inclusion
// property — sticky bypasses keep a block out of a small cache while a
// larger one admits it — so every member carries full FSM state and the
// kernel advances them in lockstep off one shared block decode. The
// §6 last-line register is size-independent (it holds a block number),
// so one shared register serves the whole column; per-cell simulations
// would each compute the identical register trajectory.
type DE struct {
	lineShift   int
	stickyMax   uint8
	useLastLine bool
	lastTag     uint64
	lastValid   bool
	members     []deMember
	order       []int
	accesses    uint64
}

type deMember struct {
	setMask uint64
	tags    []uint64
	valid   []bool
	sticky  []uint8
	flag    []bool
	store   core.HitLastStore
	hits    uint64
	fills   uint64
	bypass  uint64
	evicts  uint64
	llHits  uint64
	defends uint64
	overrid uint64
}

// NewDE builds a dynamic-exclusion column over the given sizes (any
// order, duplicates allowed); Outcomes reports in the same order.
func NewDE(cfg DEConfig, line uint64, sizes []uint64) (*DE, error) {
	if err := Validate(line, sizes, 1); err != nil {
		return nil, err
	}
	if cfg.StickyMax < 1 || cfg.StickyMax > 255 {
		return nil, fmt.Errorf("multisim: sticky max %d out of range [1, 255]", cfg.StickyMax)
	}
	c := &DE{
		lineShift:   bits.TrailingZeros64(line),
		stickyMax:   uint8(cfg.StickyMax),
		useLastLine: cfg.LastLine,
		members:     make([]deMember, len(sizes)),
		order:       ascendingSizes(sizes),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / line
		m := deMember{
			setMask: nsets - 1,
			tags:    make([]uint64, nsets),
			valid:   make([]bool, nsets),
			sticky:  make([]uint8, nsets),
			flag:    make([]bool, nsets),
		}
		if cfg.Hashed {
			store, err := core.NewHashedStore(int(nsets)*cfg.Bits, cfg.AssumeHit)
			if err != nil {
				return nil, fmt.Errorf("multisim: %w", err)
			}
			m.store = store
		} else {
			m.store = core.NewTableStore(cfg.AssumeHit)
		}
		c.members[k] = m
	}
	return c, nil
}

// Batch advances every member over the chunk in lockstep, mirroring
// core.(*Cache).Access transition for transition: register hit → tag
// hit (sticky refresh) → cold fill → sticky defense (bypass) →
// replacement with hit-last writeback. The conformance column battery
// pins the per-member equivalence, extras included.
//
//dynexcheck:hot
func (c *DE) Batch(refs []trace.Ref) {
	c.accesses += uint64(len(refs))
	if len(c.members) == 1 {
		c.batchOne(refs)
		return
	}
	members := c.members
	shift := c.lineShift
	stickyMax := c.stickyMax
	useLastLine := c.useLastLine
	lastTag, lastValid := c.lastTag, c.lastValid
	for i := range refs {
		block := refs[i].Addr >> shift

		if useLastLine {
			if lastValid && lastTag == block {
				for k := range members {
					members[k].hits++
					members[k].llHits++
				}
				continue
			}
			lastTag, lastValid = block, true
		}

		for k := range members {
			m := &members[k]
			set := block & m.setMask
			if m.valid[set] && m.tags[set] == block {
				m.sticky[set] = stickyMax
				m.flag[set] = true
				m.hits++
				continue
			}

			if !m.valid[set] {
				m.tags[set] = block
				m.valid[set] = true
				m.sticky[set] = stickyMax
				m.flag[set] = true
				m.fills++
				continue
			}

			cost := uint8(1)
			if m.store.Lookup(block) {
				cost = 2
			}
			if m.sticky[set] >= cost {
				m.sticky[set] -= cost
				m.defends++
				m.bypass++
				continue
			}

			wasSticky := m.sticky[set] > 0
			if wasSticky {
				m.overrid++
			}
			m.store.Writeback(m.tags[set], m.flag[set])
			m.tags[set] = block
			m.sticky[set] = stickyMax
			m.flag[set] = !wasSticky
			m.fills++
			m.evicts++
		}
	}
	c.lastTag, c.lastValid = lastTag, lastValid
}

// batchOne is Batch for a one-member column, the shape every single de
// cell runs as: the member's FSM arrays, its store and the register
// sit in locals, and every counter accumulates in a local until the
// chunk ends.
//
//dynexcheck:hot
func (c *DE) batchOne(refs []trace.Ref) {
	m := &c.members[0]
	shift, mask := c.lineShift, m.setMask
	// Sliced to mask+1 so the compiler drops most per-probe bounds checks.
	tags, valid, sticky, flag := m.tags[:mask+1], m.valid[:mask+1], m.sticky[:mask+1], m.flag[:mask+1]
	store := m.store
	stickyMax := c.stickyMax
	useLastLine := c.useLastLine
	lastTag, lastValid := c.lastTag, c.lastValid
	var hits, fills, bypass, evicts, llHits, defends, overrid uint64
	for i := range refs {
		block := refs[i].Addr >> shift

		if useLastLine {
			if lastValid && lastTag == block {
				hits++
				llHits++
				continue
			}
			lastTag, lastValid = block, true
		}

		set := block & mask
		if !valid[set] {
			tags[set] = block
			valid[set] = true
			sticky[set] = stickyMax
			flag[set] = true
			fills++
			continue
		}
		if tags[set] == block {
			sticky[set] = stickyMax
			flag[set] = true
			hits++
			continue
		}

		cost := uint8(1)
		if store.Lookup(block) {
			cost = 2
		}
		if sticky[set] >= cost {
			sticky[set] -= cost
			defends++
			bypass++
			continue
		}

		wasSticky := sticky[set] > 0
		if wasSticky {
			overrid++
		}
		store.Writeback(tags[set], flag[set])
		tags[set] = block
		sticky[set] = stickyMax
		flag[set] = !wasSticky
		fills++
		evicts++
	}
	c.lastTag, c.lastValid = lastTag, lastValid
	m.hits += hits
	m.fills += fills
	m.bypass += bypass
	m.evicts += evicts
	m.llHits += llHits
	m.defends += defends
	m.overrid += overrid
}

// Outcomes returns cumulative per-member stats and the dynamic-
// exclusion extras — same counters, same order as core.(*Cache).Extras
// — in constructor size order.
func (c *DE) Outcomes() []engine.ColumnOutcome {
	outs := make([]engine.ColumnOutcome, len(c.members))
	for k := range c.members {
		m := &c.members[k]
		outs[c.order[k]] = engine.ColumnOutcome{
			Stats: cache.Stats{
				Accesses:  c.accesses,
				Hits:      m.hits,
				Misses:    m.fills + m.bypass,
				Fills:     m.fills,
				Bypasses:  m.bypass,
				Evictions: m.evicts,
			},
			Extras: []cache.Counter{
				{Name: "sticky_defenses", Value: m.defends},
				{Name: "hitlast_overrides", Value: m.overrid},
				{Name: "lastline_hits", Value: m.llHits},
			},
		}
	}
	return outs
}
