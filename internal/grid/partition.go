package grid

import (
	"repro/internal/engine"
	"repro/internal/policy"
)

// Partition decomposes a set of pending plan cells into maximal column
// units plus a cell-by-cell remainder (DESIGN.md §15). A column is
// every pending cell sharing one (source, line, policy) triple across
// the plan's size axis: a multisim kernel for dm, de, lru and fifo, and
// opt's whole-stream column, which shares one next-use pass across its
// sizes. Columns with fewer than two members stay cell-by-cell (a
// one-cell column has nothing to share, and the cell's own batch
// kernel is faster than a one-member column kernel — DESIGN.md §15 has
// the numbers), as do cells of column-ineligible policies or
// geometries (policy.Spec.Column decides), cells the plan isolates
// (Plan.Isolated: fault-injected cells stay on the per-cell path, where
// the injection wrapper actually runs), and cells the caller's skip
// function excludes (nil skips nothing).
//
// pending holds plan indices (positions into p.Cells), in the order the
// caller will hand the corresponding cells to engine.RunGrouped; the
// returned group Indices are positions into pending, NOT plan indices,
// so the groups can be passed straight alongside the caller's pending
// cell slice. Out-of-range pending entries are left ungrouped rather
// than rejected. Partitioning changes scheduling only: fingerprints,
// CSV row order, and per-cell results are the same either way, which
// dynex-sweep's default-vs--scalar byte-identity tests pin.
func (p Plan) Partition(pending []int, skip func(planIdx int) bool) []engine.Group {
	nS, nL, nP := len(p.Spec.Sizes), len(p.Spec.Lines), len(p.Spec.Policies)
	if nS < 2 || nL == 0 || nP == 0 {
		return nil
	}
	specs := make([]policy.Spec, nP)
	parsed := make([]bool, nP)
	for i, pol := range p.Spec.Policies {
		sp, err := policy.Parse(pol)
		if err != nil {
			continue // Build already rejected this; be safe, not sorry
		}
		specs[i], parsed[i] = sp, true
	}
	type colKey struct{ src, line, pol int }
	type column struct {
		members []int // positions into pending
		sizes   []uint64
	}
	var keys []colKey
	cols := make(map[colKey]*column)
	for pos, pi := range pending {
		if pi < 0 || pi >= len(p.Cells) {
			continue
		}
		if (pi < len(p.Isolated) && p.Isolated[pi]) || (skip != nil && skip(pi)) {
			continue
		}
		polI := pi % nP
		rest := pi / nP
		lineI := rest % nL
		rest /= nL
		sizeI := rest % nS
		srcI := rest / nS
		if !parsed[polI] {
			continue
		}
		k := colKey{srcI, lineI, polI}
		c, ok := cols[k]
		if !ok {
			c = &column{}
			cols[k] = c
			keys = append(keys, k)
		}
		c.members = append(c.members, pos)
		c.sizes = append(c.sizes, p.Spec.Sizes[sizeI])
	}
	var groups []engine.Group
	for _, k := range keys {
		c := cols[k]
		if len(c.members) < 2 {
			continue
		}
		newCol, ok := specs[k.pol].Column(p.Spec.Lines[k.line], c.sizes)
		if !ok {
			continue
		}
		groups = append(groups, engine.Group{Indices: c.members, NewColumn: newCol})
	}
	return groups
}
