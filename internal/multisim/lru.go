package multisim

import (
	"math/bits"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// LRU is the stack-distance size column: Mattson-style stack processing
// (Hill & Smith's forest simulation collapsed onto move-to-front
// stacks) yields every member's hit/miss decision from ONE stack walk
// per reference.
//
// How it works: keep a recency stack (most recent first) per set of the
// SMALLEST member. With bit-selected power-of-two set counts, the set
// index of every member is a prefix-extension of the smallest member's:
// member k's set bits are the smallest member's s0 bits plus needTZ[k]
// more. A walk toward the probed block counts, for each entry above it,
// how many of those extra bits match the probe (the capped trailing
// zero count of the XOR); entry e conflicts with the probe at member k
// iff all needTZ[k] extra bits match, i.e. tz >= needTZ[k]. Suffix-
// summing the tz histogram therefore gives the probe's LRU stack
// distance at every member simultaneously, and distance < ways is a
// hit. This is also a constructive proof of inclusion across set
// counts (fixed ways): the matching condition at 2S implies the one at
// S, so distances shrink as caches grow and a hit at S is a hit at 2S
// — the property the conformance stack battery asserts.
//
// Walks early-out once the finest-level count reaches ways (the
// largest member's distance is the column's minimum, so everything
// below is a miss for all members), and entries buried under ways
// same-finest-set newer entries are dead — they can never hit again at
// any member — so stacks are compacted in place when they reach their
// fixed capacity. Both short-cuts are exact, not approximations; the
// conformance column battery pins per-cell equivalence.
type LRU struct {
	lineShift int
	s0        int    // log2 of the smallest member's set count
	minMask   uint64 // smallest member's set mask
	ways      uint64
	members   []lruMember // ascending by size
	order     []int
	// stacks[si] is the recency stack for smallest-member set si:
	// block numbers, most recent first, fixed capacity (see NewLRU).
	stacks    [][]uint64
	groupMask uint64   // finest-set group id bits above s0
	groupCnt  []uint32 // compaction scratch, one slot per group
	bucket    []uint64 // walk scratch: histogram of capped tz values
	// mru replaces the stacks in a one-member column: per set, a
	// ways-deep array of its resident blocks, most recent first, of
	// which the member's fillCnt[set] are valid.
	mru      []uint64
	accesses uint64
}

type lruMember struct {
	setMask uint64
	needTZ  int // extra set bits above s0 that must match to conflict
	// fillCnt[set] counts valid ways, saturating at ways: fills beyond
	// it are evictions (SetAssoc fills invalid ways first).
	fillCnt []uint32
	hits    uint64
	fills   uint64
	evicts  uint64
}

// NewLRU builds an LRU column over the given sizes at a fixed way
// count (any order, duplicates allowed); Outcomes reports in the same
// order.
func NewLRU(line uint64, sizes []uint64, ways int) (*LRU, error) {
	if err := Validate(line, sizes, ways); err != nil {
		return nil, err
	}
	c := &LRU{
		lineShift: bits.TrailingZeros64(line),
		ways:      uint64(ways),
		members:   make([]lruMember, len(sizes)),
		order:     ascendingSizes(sizes),
	}
	for k, oi := range c.order {
		nsets := sizes[oi] / (line * uint64(ways))
		c.members[k] = lruMember{
			setMask: nsets - 1,
			fillCnt: make([]uint32, nsets),
		}
	}
	if len(c.members) == 1 {
		c.mru = make([]uint64, (c.members[0].setMask+1)*c.ways)
		return c, nil
	}
	minSets := c.members[0].setMask + 1
	maxSets := c.members[len(c.members)-1].setMask + 1
	c.s0 = bits.TrailingZeros64(minSets)
	c.minMask = minSets - 1
	for k := range c.members {
		c.members[k].needTZ = bits.TrailingZeros64(c.members[k].setMask+1) - c.s0
	}
	c.groupMask = maxSets/minSets - 1
	c.groupCnt = make([]uint32, c.groupMask+1)
	c.bucket = make([]uint64, c.members[len(c.members)-1].needTZ+1)
	// Stack capacity: compaction keeps at most ways entries per finest-
	// set group (live = everything that could still hit somewhere), and
	// the slack amortizes compaction cost to O(1) per push.
	live := ways * int(c.groupMask+1)
	capLen := live + live/2 + 8
	backing := make([]uint64, int(minSets)*capLen)
	c.stacks = make([][]uint64, minSets)
	for i := range c.stacks {
		c.stacks[i] = backing[:0:capLen]
		backing = backing[capLen:]
	}
	return c, nil
}

// Batch advances every member over the chunk: one stack walk per
// reference decides hit/miss for the whole column (see the type
// comment), then one move-to-front (hit) or push (miss) maintains
// recency. Distances count DISTINCT conflicting blocks above the probe;
// a stale duplicate left behind by an early-out walk can only inflate a
// count already at >= ways (its burial certificate — ways distinct
// same-finest-group entries above it — also conflicts wherever the
// duplicate does), so no decision ever flips.
//
//dynexcheck:hot
func (c *LRU) Batch(refs []trace.Ref) {
	c.accesses += uint64(len(refs))
	if len(c.members) == 1 {
		c.batchOne(refs)
		return
	}
	members := c.members
	bucket := c.bucket
	topNeed := len(bucket) - 1
	ways := c.ways
	shift := c.lineShift
	s0 := c.s0
	for i := range refs {
		block := refs[i].Addr >> shift
		si := block & c.minMask
		stack := c.stacks[si]
		for t := range bucket {
			bucket[t] = 0
		}
		found := -1
		for j := 0; j < len(stack); j++ {
			if bucket[topNeed] >= ways {
				break
			}
			e := stack[j]
			if e == block {
				found = j
				break
			}
			// Same smallest-member set, so e^block is nonzero above s0.
			tz := bits.TrailingZeros64((e ^ block) >> s0)
			if tz > topNeed {
				tz = topNeed
			}
			bucket[tz]++
		}
		// Suffix-sum the histogram into per-member distances, walking
		// members largest-first (descending needTZ): member k conflicts
		// with entries whose tz >= needTZ[k].
		dist := uint64(0)
		t := topNeed
		for k := len(members) - 1; k >= 0; k-- {
			m := &members[k]
			for ; t >= m.needTZ; t-- {
				dist += bucket[t]
			}
			if found >= 0 && dist < ways {
				m.hits++
				continue
			}
			set := block & m.setMask
			if uint64(m.fillCnt[set]) < ways {
				m.fillCnt[set]++
			} else {
				m.evicts++
			}
			m.fills++
		}
		if found >= 0 {
			copy(stack[1:found+1], stack[:found])
			stack[0] = block
		} else {
			if len(stack) == cap(stack) {
				stack = c.compact(stack)
			}
			n := len(stack)
			stack = stack[: n+1 : cap(stack)]
			copy(stack[1:], stack[:n])
			stack[0] = block
			c.stacks[si] = stack
		}
	}
}

// batchOne is Batch for a one-member column, the shape every single lru
// cell runs as. With one set count there is nothing to share, so it
// drops the stack walk, the tz histogram and compaction: a set's
// recency order is its ways-deep mru row, a hit moves the block to the
// front, and a miss pushes it there, the least recent block falling off
// the end once the set is full. The counters stay in locals until the
// chunk ends.
//
//dynexcheck:hot
func (c *LRU) batchOne(refs []trace.Ref) {
	m := &c.members[0]
	mru, cnt := c.mru, m.fillCnt
	shift, mask := c.lineShift, m.setMask
	ways := int(c.ways)
	var hits, fills, evicts uint64
	for i := range refs {
		block := refs[i].Addr >> shift
		set := block & mask
		n := int(cnt[set])
		row := mru[int(set)*ways : int(set)*ways+ways]
		j := 0
		for j < n && row[j] != block {
			j++
		}
		if j < n {
			hits++
		} else {
			fills++
			if n < ways {
				cnt[set]++
			} else {
				evicts++
				j = ways - 1
			}
		}
		for ; j > 0; j-- {
			row[j] = row[j-1]
		}
		row[0] = block
	}
	m.hits += hits
	m.fills += fills
	m.evicts += evicts
}

// compact drops dead stack entries in place: an entry with ways
// same-finest-group entries above it can never hit again at any member
// (distances only grow as entries age), so it contributes nothing but
// walk length. Survivors keep relative recency order, and at most ways
// entries per finest-set group survive, so the result fits well under
// the fixed capacity.
//
//dynexcheck:hot
func (c *LRU) compact(stack []uint64) []uint64 {
	cnt := c.groupCnt
	for i := range cnt {
		cnt[i] = 0
	}
	ways := uint32(c.ways)
	w := 0
	for _, e := range stack {
		g := (e >> c.s0) & c.groupMask
		if cnt[g] >= ways {
			continue
		}
		cnt[g]++
		stack[w] = e
		w++
	}
	return stack[:w]
}

// Outcomes returns cumulative per-member stats in constructor size
// order. Set-associative caches never bypass: misses equal fills.
func (c *LRU) Outcomes() []engine.ColumnOutcome {
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
