package opt

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// DMColumn is the optimal direct-mapped cache over a size column: one
// line size, any number of cache sizes, one member included. It
// prepares the stream once and runs every member's forward pass, so the
// next-use pass is shared by the whole column.
//
// The policy needs the stream's whole future, so Batch only collects
// the stream and the first Outcomes call simulates it. The engine's
// chunks are consecutive windows of one materialized slice, which Batch
// re-joins without copying; any other sequence of pieces is copied into
// a slice of the column's own. A column that never sees a Batch call
// reports the empty stream's zero Stats.
type DMColumn struct {
	line     uint64
	sizes    []uint64
	lastLine bool
	refs     []trace.Ref
	outs     []engine.ColumnOutcome
}

// NewDMColumn returns the optimal direct-mapped column over sizes at
// one line size, with or without the §6 last-line buffer. Outcomes
// follow the order of sizes. Every member geometry must validate.
func NewDMColumn(line uint64, sizes []uint64, useLastLine bool) (*DMColumn, error) {
	if len(sizes) == 0 {
		return nil, errors.New("opt: column has no sizes")
	}
	for _, size := range sizes {
		if err := cache.DM(size, line).Validate(); err != nil {
			return nil, fmt.Errorf("opt: column member %d: %w", size, err)
		}
	}
	return &DMColumn{
		line:     line,
		sizes:    append([]uint64(nil), sizes...),
		lastLine: useLastLine,
	}, nil
}

// Batch appends refs to the collected stream.
func (c *DMColumn) Batch(refs []trace.Ref) {
	n := len(c.refs)
	switch {
	case len(refs) == 0:
	case n == 0:
		c.refs = refs
	case n+len(refs) <= cap(c.refs) && &c.refs[:n+1][n] == &refs[0]:
		c.refs = c.refs[:n+len(refs)] // the next window of the same slice
	default:
		c.refs = append(c.refs[:n:n], refs...)
	}
}

// Outcomes simulates every member over the collected stream on its
// first call and returns each member's Stats in the order of sizes.
func (c *DMColumn) Outcomes() []engine.ColumnOutcome {
	if c.outs == nil {
		p := prepare(c.refs, c.line, c.lastLine)
		c.outs = make([]engine.ColumnOutcome, len(c.sizes))
		for k, size := range c.sizes {
			c.outs[k].Stats = p.simulateDM(size, 0)
		}
	}
	return c.outs
}
