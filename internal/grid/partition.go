package grid

import (
	"repro/internal/engine"
	"repro/internal/policy"
)

// Partition decomposes a set of pending plan cells into maximal column
// units plus a cell-by-cell remainder (DESIGN.md §15). A column is
// every pending cell sharing one (source, line, policy) coordinate
// (Plan.Coords) across whatever sizes the plan holds for it, so a plan
// need not be a full rectangle, and a lone cell is a one-member column:
// the column kernel is the policy's one fast path. It runs as a
// multisim kernel for dm, de, lru and fifo, and as opt's column, which
// shares one next-use pass across its sizes. Cells of column-ineligible
// policies or geometries (policy.Spec.Column decides) stay cell-by-cell
// on their scalar simulator, as do cells the plan isolates
// (Plan.Isolated: fault-injected cells stay on the per-cell path, where
// the injection wrapper actually runs) and cells the caller's skip
// function excludes (nil skips nothing).
//
// pending holds plan indices (positions into p.Cells), in the order the
// caller will hand the corresponding cells to engine.RunGrouped; the
// returned group Indices are positions into pending, NOT plan indices,
// so the groups can be passed straight alongside the caller's pending
// cell slice. Out-of-range pending entries, and cells without
// coordinates, are left ungrouped rather than rejected. Partitioning
// changes scheduling only: fingerprints, CSV row order, and per-cell
// results are the same either way, which dynex-sweep's
// default-vs--scalar byte-identity tests pin.
func (p Plan) Partition(pending []int, skip func(planIdx int) bool) []engine.Group {
	type colKey struct {
		src  int
		line uint64
		pol  string
	}
	type column struct {
		members []int // positions into pending
		sizes   []uint64
	}
	var keys []colKey
	cols := make(map[colKey]*column)
	for pos, pi := range pending {
		if pi < 0 || pi >= len(p.Coords) {
			continue
		}
		if (pi < len(p.Isolated) && p.Isolated[pi]) || (skip != nil && skip(pi)) {
			continue
		}
		c := p.Coords[pi]
		k := colKey{c.Source, c.Line, c.Policy}
		col, ok := cols[k]
		if !ok {
			col = &column{}
			cols[k] = col
			keys = append(keys, k)
		}
		col.members = append(col.members, pos)
		col.sizes = append(col.sizes, c.Size)
	}
	var groups []engine.Group
	for _, k := range keys {
		c := cols[k]
		sp, err := policy.Parse(k.pol)
		if err != nil {
			continue // Build already rejected this; be safe, not sorry
		}
		newCol, ok := sp.Column(k.line, c.sizes)
		if !ok {
			continue
		}
		groups = append(groups, engine.Group{Indices: c.members, NewColumn: newCol})
	}
	return groups
}
