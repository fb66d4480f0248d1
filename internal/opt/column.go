package opt

import (
	"errors"
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// DMColumn is the optimal direct-mapped cache over a size column: one
// line size, any number of cache sizes. Its single Batch call prepares
// the stream once and runs every member's forward pass, so the
// next-use pass is shared by the whole column.
//
// The policy needs the stream's whole future, so DMColumn is an
// engine.WholeStreamColumn: the engine hands it the entire stream in
// one Batch call. A second Batch call means the stream arrived in
// pieces and the first pass saw only part of the future; the column
// then fails (Err is non-nil and Outcomes is empty) rather than report
// stats computed from a partial future. A column that never sees a
// Batch call reports the empty stream's zero Stats.
type DMColumn struct {
	line     uint64
	sizes    []uint64
	lastLine bool
	fed      bool
	outs     []engine.ColumnOutcome
	err      error
}

var _ engine.WholeStreamColumn = (*DMColumn)(nil)

// errChunked reports a DMColumn fed more than one Batch call.
var errChunked = errors.New("opt: column needs the whole stream in one Batch call; it was fed in pieces")

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
		outs:     make([]engine.ColumnOutcome, len(sizes)),
	}, nil
}

// Batch simulates every member over refs, which must be the whole
// stream.
func (c *DMColumn) Batch(refs []trace.Ref) {
	if c.fed {
		c.err, c.outs = errChunked, nil
		return
	}
	c.fed = true
	p := prepare(refs, c.line, c.lastLine)
	for k, size := range c.sizes {
		c.outs[k].Stats = p.simulateDM(size, 0)
	}
}

// Err reports a column fed in more than one Batch call.
func (c *DMColumn) Err() error { return c.err }

// Outcomes returns each member's Stats in the order of sizes, or nil
// after a failure.
func (c *DMColumn) Outcomes() []engine.ColumnOutcome { return c.outs }
