// Package opt implements optimal (Belady-style) replacement simulators.
//
// The paper's yardstick is the "optimal direct-mapped cache": blocks are
// placed exactly where a direct-mapped cache would place them, but the
// replacement decision uses future knowledge — on a conflict the cache
// retains whichever of the two blocks is referenced sooner, and a block
// may be passed to the CPU without ever being stored (bypass). Belady
// [Bel66] proved the analogous policy optimal for page replacement; per
// cache set the same exchange argument applies.
//
// Because these simulators need the future, they run over a materialized
// reference slice in two steps. A prepare step makes one backward pass
// that computes each reference's next use. That depends only on the
// stream, the line size and the last-line setting, never on the cache
// size. A forward pass per geometry then makes the replacement
// decisions. A size column (DMColumn) therefore prepares once and runs
// one forward pass per member; SimulateDMWindow is the one-member case
// of the same two steps.
package opt

import (
	"math"
	"math/bits"
	"sort"

	"repro/internal/cache"
	"repro/internal/trace"
)

// infinity marks a reference whose block is never used again.
const infinity = math.MaxInt64

// seen is one slot of nextUses' open-addressing table: the most recent
// position at which block was referenced, stored as pos+1 so the zero
// slot is empty.
type seen struct {
	block uint64
	pos   int64
}

// minSeenTable is nextUses' initial table capacity (a power of two).
const minSeenTable = 1 << 10

// seenHash is the Fibonacci-hashing multiplier: the table index is the
// top bits of block*seenHash, which spreads sequential block numbers.
const seenHash = 0x9E3779B97F4A7C15

// nextUses returns, for every position i, the next position at which
// blocks[i] is referenced again (infinity if never). One backward pass
// keeps each block's most recent position in an open-addressing table
// (linear probing, power-of-two capacity, grown at 50% load), so its
// memory is O(distinct blocks).
func nextUses(blocks []uint64) []int64 {
	next := make([]int64, len(blocks))
	tab := make([]seen, minSeenTable)
	shift := uint(64 - bits.TrailingZeros(minSeenTable))
	used := 0
	for i := len(blocks) - 1; i >= 0; i-- {
		b := blocks[i]
		mask := uint64(len(tab) - 1)
		for h := (b * seenHash) >> shift; ; h = (h + 1) & mask {
			s := &tab[h]
			if s.pos == 0 {
				next[i] = infinity
				*s = seen{block: b, pos: int64(i) + 1}
				if used++; 2*used > len(tab) {
					tab, shift = growSeen(tab, shift)
				}
				break
			}
			if s.block == b {
				next[i] = s.pos - 1
				s.pos = int64(i) + 1
				break
			}
		}
	}
	return next
}

// growSeen rehashes tab into a table twice its size.
func growSeen(tab []seen, shift uint) ([]seen, uint) {
	grown := make([]seen, 2*len(tab))
	shift--
	mask := uint64(len(grown) - 1)
	for _, s := range tab {
		if s.pos == 0 {
			continue
		}
		h := (s.block * seenHash) >> shift
		for grown[h].pos != 0 {
			h = (h + 1) & mask
		}
		grown[h] = s
	}
	return grown, shift
}

// blocksOf returns the block number of every reference at a
// power-of-two line size.
func blocksOf(refs []trace.Ref, line uint64) []uint64 {
	shift := bits.TrailingZeros64(line)
	blocks := make([]uint64, len(refs))
	for i := range refs {
		blocks[i] = refs[i].Addr >> shift
	}
	return blocks
}

// prepared is a stream's future knowledge at one line size: the block
// of every reference that reaches a replacement decision, its next use,
// and its position in the original stream. It does not depend on the
// cache size, so one prepared stream serves every size at its line
// size.
type prepared struct {
	line uint64
	// refs is the original stream's length.
	refs int
	// blocks are the decision references' blocks: every reference, or
	// with the last-line buffer only the head of each same-line run.
	blocks []uint64
	// next[i] is the next decision index at which blocks[i] recurs.
	next []int64
	// orig[i] is blocks[i]'s position in the original stream (nil when
	// every reference decides, i.e. the identity).
	orig []int
}

// prepare computes refs' future knowledge at a power-of-two line size
// (it panics on any other). With useLastLine the §6 last-line buffer
// collapses runs of same-line references: the in-run references are
// unconditional buffer hits, and only run heads reach the cache.
func prepare(refs []trace.Ref, line uint64, useLastLine bool) *prepared {
	if line == 0 || bits.OnesCount64(line) != 1 {
		panic("opt: line size is not a power of two")
	}
	p := &prepared{line: line, refs: len(refs)}
	if !useLastLine {
		p.blocks = blocksOf(refs, line)
		p.next = nextUses(p.blocks)
		return p
	}
	// Count the run heads first so blocks and orig are allocated once,
	// at their final size: growing them by append held up to twice the
	// memory at peak.
	shift := bits.TrailingZeros64(line)
	heads := 0
	for i := range refs {
		if i == 0 || refs[i].Addr>>shift != refs[i-1].Addr>>shift {
			heads++
		}
	}
	p.blocks = make([]uint64, 0, heads)
	p.orig = make([]int, 0, heads)
	for i := range refs {
		if b := refs[i].Addr >> shift; i == 0 || b != refs[i-1].Addr>>shift {
			p.blocks = append(p.blocks, b)
			p.orig = append(p.orig, i)
		}
	}
	p.next = nextUses(p.blocks)
	return p
}

// resident is one direct-mapped set of the forward pass: the resident
// block and its next use, or next == emptySet for an empty set.
type resident struct {
	block uint64
	next  int64
}

const emptySet = -1

// simulateDM runs the optimal direct-mapped cache of the given size at
// the prepared line size (it panics on an invalid geometry), counting
// only the outcomes of the original stream's references at positions
// warmup and later. Replacement decisions still use the whole stream's
// future knowledge; a warmup outside [0, len(refs)] is clamped.
func (p *prepared) simulateDM(size uint64, warmup int) cache.Stats {
	geom := cache.DM(size, p.line)
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	warmup = min(max(warmup, 0), p.refs)
	// w0 is the first decision at or after the warmup boundary.
	w0 := warmup
	if p.orig != nil {
		w0 = sort.SearchInts(p.orig, warmup)
	}
	sets := make([]resident, geom.Sets())
	for i := range sets {
		sets[i].next = emptySet
	}
	mask := geom.Sets() - 1
	forward(sets, mask, p.blocks[:w0], p.next[:w0])
	stats := forward(sets, mask, p.blocks[w0:], p.next[w0:])
	// Every counted reference that made no decision was an in-run
	// last-line buffer hit.
	inRun := uint64(p.refs-warmup) - uint64(len(p.blocks)-w0)
	stats.Accesses += inRun
	stats.Hits += inRun
	return stats
}

// forward is the optimal direct-mapped replacement loop over decision
// references: a hit refreshes the resident's next use; on a conflict
// the block needed sooner stays, and a newcomer needed no sooner than
// the resident bypasses the cache.
//
//dynexcheck:hot
func forward(sets []resident, mask uint64, blocks []uint64, next []int64) cache.Stats {
	var stats cache.Stats
	next = next[:len(blocks)]
	for i, b := range blocks {
		s := &sets[b&mask]
		nu := next[i]
		switch {
		case s.next != emptySet && s.block == b:
			s.next = nu
			stats.Record(cache.Hit, false)
		case s.next == emptySet:
			*s = resident{block: b, next: nu}
			stats.Record(cache.MissFill, false)
		case nu < s.next:
			// The newcomer is needed sooner: replace.
			*s = resident{block: b, next: nu}
			stats.Record(cache.MissFill, true)
		default:
			// The resident is needed sooner (or equally late): bypass.
			stats.Record(cache.MissBypass, false)
		}
	}
	return stats
}

// SimulateDM runs the optimal direct-mapped cache with bypass over refs.
// If useLastLine is true the simulator also gets the §6 last-line buffer:
// consecutive references to the most recently fetched line hit without a
// replacement decision, matching what the dynamic exclusion hardware is
// given in the long-line experiments.
func SimulateDM(refs []trace.Ref, geom cache.Geometry, useLastLine bool) cache.Stats {
	return SimulateDMWindow(refs, geom, useLastLine, 0)
}

// SimulateDMWindow is SimulateDM restricted to a measurement window: the
// replacement decisions still use the whole stream's future knowledge,
// but only the outcomes of refs[warmup:] are counted. That is the optimal
// policy's steady-state window, directly comparable to the online
// policies' warmup-subtracted Stats (cache.Stats.Sub after a warmup
// snapshot). warmup 0 reproduces SimulateDM exactly.
func SimulateDMWindow(refs []trace.Ref, geom cache.Geometry, useLastLine bool, warmup int) cache.Stats {
	geom.Ways = 1
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	return prepare(refs, geom.LineSize, useLastLine).simulateDM(geom.Size, warmup)
}

// SimulateSetAssoc runs Belady-optimal replacement with bypass on an
// n-way set-associative cache (Ways = 0 means fully associative). Used by
// the related-work comparisons.
func SimulateSetAssoc(refs []trace.Ref, geom cache.Geometry) cache.Stats {
	if err := geom.Validate(); err != nil {
		panic("opt: " + err.Error())
	}
	next := nextUses(blocksOf(refs, geom.LineSize))
	nsets := geom.Sets()
	ways := geom.WaysPerSet()
	type slot struct {
		block uint64
		next  int64
		valid bool
	}
	sets := make([][]slot, nsets)
	backing := make([]slot, int(nsets)*ways)
	for i := range sets {
		sets[i], backing = backing[:ways:ways], backing[ways:]
	}

	var stats cache.Stats
	for i, r := range refs {
		b := geom.Block(r.Addr)
		set := sets[b%nsets]
		hitIdx := -1
		for w := range set {
			if set[w].valid && set[w].block == b {
				hitIdx = w
				break
			}
		}
		if hitIdx >= 0 {
			set[hitIdx].next = next[i]
			stats.Record(cache.Hit, false)
			continue
		}
		empty, worst := -1, -1
		for w := range set {
			if !set[w].valid {
				empty = w
				break
			}
			if worst < 0 || set[w].next > set[worst].next {
				worst = w
			}
		}
		switch {
		case empty >= 0:
			set[empty] = slot{block: b, next: next[i], valid: true}
			stats.Record(cache.MissFill, false)
		case next[i] < set[worst].next:
			// The newcomer is needed before the farthest-future resident.
			set[worst] = slot{block: b, next: next[i], valid: true}
			stats.Record(cache.MissFill, true)
		default:
			stats.Record(cache.MissBypass, false)
		}
	}
	return stats
}

// MissRateDM is a convenience wrapper returning just the miss rate of the
// optimal direct-mapped cache.
func MissRateDM(refs []trace.Ref, geom cache.Geometry, useLastLine bool) float64 {
	return SimulateDM(refs, geom, useLastLine).MissRate()
}
