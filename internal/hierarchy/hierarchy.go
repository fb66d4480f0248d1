// Package hierarchy implements the paper's §5 two-level cache system: a
// direct-mapped L1 with dynamic exclusion in front of a direct-mapped L2,
// with the three strategies for storing hit-last bits when they are not
// found at the second level:
//
//   - AssumeHit — hit-last bits live in the L2 cache lines; an L1 miss
//     that also misses L2 assumes the bit is set. Content is inclusive
//     (everything in L1 is also in L2), so L2 sees no benefit.
//
//   - AssumeMiss — bits live in L2; the default on an L2 miss is clear.
//     Content is exclusive: blocks stored in L1 are removed from (or never
//     placed in) L2, excluded blocks and L1 victims go to L2. This
//     maximizes the difference between the two levels and helps L2 most.
//
//   - Hashed — bits live entirely in a hashed table inside L1 (the paper
//     finds four bits per L1 line suffice); the L2 cache needs no changes
//     and does not even need to know L1 uses dynamic exclusion. Content is
//     exclusive, as with AssumeMiss.
//
// A Baseline configuration (conventional direct-mapped L1, inclusive L2)
// provides the comparison curve of Figures 7–9.
package hierarchy

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/core"
)

// Strategy selects where hit-last bits live and what an L2 miss implies.
type Strategy uint8

const (
	// Baseline is a conventional direct-mapped L1 (no dynamic exclusion)
	// over an inclusive L2.
	Baseline Strategy = iota
	// AssumeHit stores hit-last bits in L2 and defaults them set.
	AssumeHit
	// AssumeMiss stores hit-last bits in L2 and defaults them clear.
	AssumeMiss
	// Hashed keeps hit-last bits in a hashed table in L1.
	Hashed
	// Ideal gives L1 an unbounded hit-last table (the single-level
	// idealization of Figures 3–5) over an exclusive L2; it upper-bounds
	// the realizable strategies.
	Ideal
)

// String names the strategy as the paper's figures label it.
func (s Strategy) String() string {
	switch s {
	case Baseline:
		return "direct-mapped"
	case AssumeHit:
		return "assume-hit"
	case AssumeMiss:
		return "assume-miss"
	case Hashed:
		return "hashed"
	case Ideal:
		return "ideal"
	default:
		return "unknown"
	}
}

// Config describes a two-level system.
type Config struct {
	// L1 is the first-level shape (Ways forced to 1: dynamic exclusion
	// is a direct-mapped replacement policy). L2 may be direct-mapped
	// (the paper's configuration, and the default when Ways is 1) or
	// set-associative. The interesting regime is L2 ≥ L1.
	L1, L2 cache.Geometry
	// Strategy selects the hit-last storage scheme.
	Strategy Strategy
	// HashedBitsPerLine sizes the hashed table as bits-per-L1-line
	// (default 4, the paper's recommendation). Only used by Hashed.
	HashedBitsPerLine int
	// UseLastLine enables the §6 last-line buffer on L1.
	UseLastLine bool
	// StickyMax passes through to the dynamic exclusion FSM (default 1).
	StickyMax int
}

// System is a two-level cache hierarchy.
type System struct {
	cfg  Config
	l1de *core.Cache         // nil when Strategy == Baseline
	l1dm *cache.DirectMapped // nil unless Strategy == Baseline
	l2   *metaDM
	excl bool // exclusive content policy

	// pending L1 victim (a one-entry victim writeback buffer: the spill
	// is applied after the demand request probes L2, as the hardware's
	// write buffer would order it)
	victimValid bool
	victimBlk   uint64
	victimH     bool

	refs         uint64
	l1BlockBytes uint64
}

// New builds the hierarchy.
func New(cfg Config) (*System, error) {
	cfg.L1.Ways = 1
	if err := cfg.L1.Validate(); err != nil {
		return nil, fmt.Errorf("hierarchy: L1: %w", err)
	}
	if err := cfg.L2.Validate(); err != nil {
		return nil, fmt.Errorf("hierarchy: L2: %w", err)
	}
	if cfg.L1.LineSize != cfg.L2.LineSize {
		return nil, fmt.Errorf("hierarchy: L1 line %d != L2 line %d (transfers are line-sized)",
			cfg.L1.LineSize, cfg.L2.LineSize)
	}
	if cfg.Strategy > Ideal {
		return nil, fmt.Errorf("hierarchy: unknown strategy %d", cfg.Strategy)
	}
	if cfg.HashedBitsPerLine == 0 {
		cfg.HashedBitsPerLine = 4
	}
	if cfg.HashedBitsPerLine < 0 {
		return nil, fmt.Errorf("hierarchy: negative HashedBitsPerLine")
	}

	s := &System{
		cfg:          cfg,
		l2:           newMetaDM(cfg.L2, cfg.Strategy == AssumeHit),
		l1BlockBytes: cfg.L1.LineSize,
	}

	var store core.HitLastStore
	switch cfg.Strategy {
	case Baseline:
		dm, err := cache.NewDirectMapped(cfg.L1)
		if err != nil {
			return nil, err
		}
		s.l1dm = dm
		s.excl = false
		return s, nil
	case AssumeHit:
		store = &l2Store{l2: s.l2, def: true}
		s.excl = false
	case AssumeMiss:
		store = &l2Store{l2: s.l2, def: false}
		s.excl = true
	case Hashed:
		entries := int(cfg.L1.Lines()) * cfg.HashedBitsPerLine
		hs, err := core.NewHashedStore(entries, false)
		if err != nil {
			return nil, err
		}
		store = hs
		s.excl = true
	case Ideal:
		store = core.NewTableStore(false)
		s.excl = true
	}

	de, err := core.New(core.Config{
		Geometry:    cfg.L1,
		Store:       store,
		UseLastLine: cfg.UseLastLine,
		StickyMax:   cfg.StickyMax,
	})
	if err != nil {
		return nil, err
	}
	de.OnEvict = s.onL1Evict
	s.l1de = de
	return s, nil
}

// Must is New but panics on error.
func Must(cfg Config) *System {
	s, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// onL1Evict records an L1 victim; the spill is applied by Access after
// the demand request has probed L2.
func (s *System) onL1Evict(block uint64, hitLast bool) {
	s.victimValid = true
	s.victimBlk = block
	s.victimH = hitLast
}

// spillVictim pushes the pending L1 victim to L2 per the content policy.
func (s *System) spillVictim() {
	if !s.victimValid {
		return
	}
	s.victimValid = false
	addr := s.victimBlk * s.l1BlockBytes
	if s.excl {
		// Exclusive: the victim (and its hit-last bit) moves down.
		s.l2.insert(addr, s.victimH)
	} else {
		// Inclusive: the line should already be in L2; just refresh the
		// bit if it still is.
		s.l2.setH(addr, s.victimH)
	}
}

// Access runs one CPU reference through both levels and returns the L1
// result.
func (s *System) Access(addr uint64) cache.Result {
	s.refs++

	var res cache.Result
	if s.l1dm != nil {
		res = s.l1dm.Access(addr)
	} else {
		res = s.l1de.Access(addr)
	}
	if res == cache.Hit {
		return res
	}
	defer s.spillVictim()

	// L1 miss: the request goes to L2. Note the hit-last Lookup for the
	// FSM decision already read L2's pre-access state, matching hardware
	// where the bit returns with the data.
	l2hit := s.l2.probe(addr)

	storedInL1 := res == cache.MissFill
	switch {
	case storedInL1 && s.excl:
		if l2hit {
			// The block moves up; L2 need not keep it.
			s.l2.invalidate(addr)
			s.l2.extra.MovedUp++
		}
	case storedInL1 && !s.excl:
		if !l2hit {
			s.l2.insert(addr, s.l2.defH)
		}
	default:
		// Excluded from L1: both policies keep the block in L2 so the
		// next reference finds it there.
		if !l2hit {
			s.l2.insert(addr, s.l2.defH)
		}
	}
	return res
}

// L1Stats returns the first level's counters.
func (s *System) L1Stats() cache.Stats {
	if s.l1dm != nil {
		return s.l1dm.Stats()
	}
	return s.l1de.Stats()
}

// Stats returns the L1 counters — what the CPU sees — so a System is a
// cache.Simulator the engine can drive as one ordinary cell.
func (s *System) Stats() cache.Stats { return s.L1Stats() }

// Extras reports the L2's accesses and misses (cache.Instrumented): an
// engine cell's Result carries them, and l2_misses over the L1's
// accesses is GlobalL2MissRate.
func (s *System) Extras() []cache.Counter {
	return []cache.Counter{
		{Name: "l2_accesses", Value: s.l2.stats.Accesses},
		{Name: "l2_misses", Value: s.l2.stats.Misses},
	}
}

// L2Stats returns the second level's counters. Accesses are L1 misses;
// the local miss rate is Misses/Accesses.
func (s *System) L2Stats() cache.Stats { return s.l2.stats }

// L2Extra returns L2 content-policy counters.
func (s *System) L2Extra() L2Extra { return s.l2.extra }

// Refs returns the number of CPU references driven so far.
func (s *System) Refs() uint64 { return s.refs }

// GlobalL2MissRate returns L2 misses per CPU reference — the rate the
// paper plots in Figure 8 (misses that leave the two-level hierarchy).
func (s *System) GlobalL2MissRate() float64 {
	if s.refs == 0 {
		return 0
	}
	return float64(s.l2.stats.Misses) / float64(s.refs)
}

// Strategy returns the configured strategy.
func (s *System) Strategy() Strategy { return s.cfg.Strategy }

// l2Store adapts the L2 metadata cache to core.HitLastStore. Lookups read
// the bit stored with the L2 line (or the strategy default when the block
// is not in L2); writebacks are handled by the hierarchy's eviction path,
// which has the same information plus the content-policy context.
type l2Store struct {
	l2  *metaDM
	def bool
}

// Lookup returns the hit-last bit L2 holds for block, or the default.
func (s *l2Store) Lookup(block uint64) bool {
	if h, ok := s.l2.lookupH(block); ok {
		return h
	}
	return s.def
}

// Writeback is a no-op; the eviction callback persists the bit.
func (s *l2Store) Writeback(uint64, bool) {}
