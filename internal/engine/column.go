package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"time"

	"repro/internal/cache"
	"repro/internal/trace"
)

// This file is the engine's one unit of work. A unit completes one or
// more cells in one pass over their shared reference stream: a column
// Group's single-pass kernel (internal/multisim) drives a power-of-two
// size column of one member or many, and every cell no Group covers
// runs as a one-member unit over its own body (Cell.NewColumn). The
// engine's guarantees do not dilute: results, Collector events,
// OnResult calls, retries, and panic attribution remain per cell, and a
// run with column units produces a result table indistinguishable from
// the cell-by-cell one (grid CSV and checkpoint byte-identity against
// dynex-sweep -scalar, which forms no columns, are pinned by
// cmd/dynex-sweep's tests).

// ColumnOutcome is one member cell's share of a column unit's single
// pass: the full-stream Stats plus the policy-specific counters —
// exactly what the per-cell path would have produced for that cell.
type ColumnOutcome struct {
	Stats  cache.Stats
	Extras []cache.Counter
}

// Column is the engine-schedulable contract of a single-pass kernel
// over one or more member cells (internal/multisim and opt.DMColumn
// implement it, one-member columns included). Batch advances every
// member cell over the next chunk of the shared stream; the engine
// calls it in driveChunk batches with cooperative cancellation checks
// in between (a WholeStreamColumn gets the whole stream in one call).
// Outcomes returns the cumulative per-member results, parallel to the
// owning Group's Indices.
type Column interface {
	Batch(refs []trace.Ref)
	Outcomes() []ColumnOutcome
}

// WholeStreamColumn is a Column that needs the entire stream in one
// Batch call: a Direct cell, whose function simulates the stream and
// can fail. attemptUnit makes exactly that one call, even over an
// empty stream, and then consults Err; such a unit is therefore not
// interruptible mid-pass. A wrapper that embeds only Column hides Err,
// and the engine then drives the column in chunks like any other, so a
// whole-stream kernel must fail on a second Batch call (Err, or too few
// Outcomes) rather than report stats from part of the stream.
type WholeStreamColumn interface {
	Column
	// Err reports the failure of the one pass; Outcomes is not
	// consulted when it is non-nil.
	Err() error
}

// Group schedules one column unit over member cells of a RunGrouped
// call. The member cells at Indices complete atomically when the
// column's single pass finishes. Members must share one reference
// stream — the column is driven over Indices[0]'s Stream exactly once —
// which grid.Partition guarantees by construction (a column never
// crosses sources).
type Group struct {
	// Indices are the member cells' positions in the cells slice, in
	// column order: Outcomes()[k] describes cells[Indices[k]].
	Indices []int
	// NewColumn constructs a fresh kernel. Like PolicyFunc it runs on a
	// worker goroutine, once per attempt, so a retried column restarts
	// from clean state.
	NewColumn func() (Column, error)
}

// RunGrouped is Run with column units: cells covered by a group are
// simulated by that group's column kernel in one pass over the shared
// stream, and Results[i] describes Cells[i] either way. Every cell no
// group covers becomes a one-member unit of its own, so one unit path
// (runUnit/attemptUnit) does all the work. Groups must reference
// distinct in-range cells and carry a constructor; a malformed group
// set is an error before anything runs. Progress counts cells, not
// units — a finishing column advances done by its member count in one
// serialized callback, and done is computed under the same lock that
// orders the callbacks, so consumers never observe counts moving
// backwards.
func RunGrouped(ctx context.Context, cells []Cell, groups []Group, opts Options) ([]Result, error) {
	results := make([]Result, len(cells))
	if len(cells) == 0 {
		return results, ctx.Err()
	}
	units, err := buildUnits(cells, groups)
	if err != nil {
		return nil, err
	}
	var (
		progressMu sync.Mutex
		doneCells  int
		runStart   = time.Now()
	)
	// finish publishes a unit's completed cells: OnResult per member in
	// member order, then one Progress call with the cumulative cell
	// count.
	finish := func(indices []int) {
		if opts.Progress == nil && opts.OnResult == nil {
			return
		}
		progressMu.Lock()
		defer progressMu.Unlock()
		for _, i := range indices {
			if opts.OnResult != nil {
				opts.OnResult(i, results[i])
			}
		}
		doneCells += len(indices)
		if opts.Progress != nil {
			opts.Progress(doneCells, len(cells))
		}
	}
	parfor(len(units), clampWorkers(opts.Workers, len(units)), func(k int) {
		u := units[k]
		if err := ctx.Err(); err != nil {
			for _, i := range u.indices {
				results[i] = Result{Label: cells[i].Label, Err: err}
			}
			return // skipped cells are not reported
		}
		runUnit(ctx, u, cells, results, opts, runStart)
		finish(u.indices)
	})
	return results, ctx.Err()
}

// unit is the engine's one unit of work: member cells completed together
// by one pass over their shared stream.
type unit struct {
	// indices are the member cells, parallel to the column's Outcomes.
	indices []int
	// newColumn builds a fresh kernel per attempt.
	newColumn func() (Column, error)
}

// buildUnits validates the group set against the cells and returns the
// run's units: the groups first — they are the long poles, so starting
// them first keeps the pool busy at the tail of a sweep — then every
// cell no group covers as a one-member unit, ascending.
func buildUnits(cells []Cell, groups []Group) ([]unit, error) {
	covered := make([]bool, len(cells))
	units := make([]unit, 0, len(cells)) // every unit holds at least one cell
	for gi, g := range groups {
		if len(g.Indices) == 0 {
			return nil, fmt.Errorf("engine: group %d has no member cells", gi)
		}
		if g.NewColumn == nil {
			return nil, fmt.Errorf("engine: group %d has no column constructor", gi)
		}
		for _, i := range g.Indices {
			if i < 0 || i >= len(cells) {
				return nil, fmt.Errorf("engine: group %d references cell %d of %d", gi, i, len(cells))
			}
			if covered[i] {
				return nil, fmt.Errorf("engine: cell %d is a member of more than one group", i)
			}
			covered[i] = true
		}
		units = append(units, unit{indices: g.Indices, newColumn: g.NewColumn})
	}
	for i, c := range covered {
		if !c {
			units = append(units, cellUnit(i, cells[i]))
		}
	}
	return units, nil
}

// cellUnit makes cell i a one-member unit over the cell's own body.
func cellUnit(i int, c Cell) unit {
	return unit{indices: []int{i}, newColumn: c.NewColumn}
}

// NewColumn builds the one-member unit the engine runs a cell as when
// no Group covers it: a Policy cell's simulator behind an adapter that
// drives one Access per reference, a Direct cell as one whole-stream
// call, and for a cell with neither (or both) errNoPolicy.
func (c Cell) NewColumn() (Column, error) {
	switch {
	case c.Policy != nil && c.Direct == nil:
		sim, err := c.Policy(c.Geometry)
		if err != nil {
			return nil, err
		}
		return policyColumn{sim}, nil
	case c.Direct != nil && c.Policy == nil:
		return &directColumn{run: c.Direct, geom: c.Geometry}, nil
	default:
		return nil, errNoPolicy
	}
}

// policyColumn adapts a Policy cell's simulator to the Column contract.
type policyColumn struct{ sim cache.Simulator }

func (c policyColumn) Batch(refs []trace.Ref) { cache.RunRefs(c.sim, refs) }

func (c policyColumn) Outcomes() []ColumnOutcome {
	return []ColumnOutcome{{Stats: c.sim.Stats(), Extras: cache.SnapshotExtras(c.sim)}}
}

// directColumn adapts a Direct cell as a WholeStreamColumn: its one
// Batch call is the whole simulation, and a failure surfaces through
// Err.
type directColumn struct {
	run   DirectFunc
	geom  cache.Geometry
	stats cache.Stats
	err   error
}

func (c *directColumn) Batch(refs []trace.Ref) { c.stats, c.err = c.run(refs, c.geom) }

func (c *directColumn) Err() error { return c.err }

func (c *directColumn) Outcomes() []ColumnOutcome { return []ColumnOutcome{{Stats: c.stats}} }

// runUnit executes one unit: every member cell starts together, the
// kernel makes one pass over the shared stream per attempt, transiently
// failing attempts re-run per opts.Retry, and each member gets its own
// Result and Collector events. A recovered panic is re-homed onto every
// member as its own *CellPanicError, so failures attribute to individual
// cells even though the work was shared.
func runUnit(ctx context.Context, u unit, cells []Cell, results []Result, opts Options, runStart time.Time) {
	var queueWait time.Duration
	if opts.Collector != nil {
		queueWait = time.Since(runStart)
		for _, i := range u.indices {
			opts.Collector.CellStarted(CellStart{Index: i, Label: cells[i].Label, QueueWait: queueWait})
		}
	}
	start := time.Now()
	var (
		outs     []ColumnOutcome
		err      error
		attempts int
	)
	for attempt := 1; ; attempt++ {
		attemptStart := time.Now()
		outs, err = attemptUnit(ctx, u, cells, opts.CellTimeout)
		attempts = attempt
		if opts.Collector != nil {
			wall := time.Since(attemptStart)
			for _, i := range u.indices {
				opts.Collector.CellAttempted(CellAttempt{
					Index: i, Label: cells[i].Label, Attempt: attempt,
					Wall: wall, Outcome: OutcomeOf(err), Err: err,
				})
			}
		}
		if err == nil || attempt >= opts.Retry.Attempts ||
			ctx.Err() != nil || errors.Is(err, context.Canceled) ||
			errors.Is(err, context.DeadlineExceeded) ||
			!opts.Retry.classify(err) {
			break
		}
		if sleepCtx(ctx, opts.Retry.delay(attempt)) != nil {
			break // cancelled during backoff; keep the attempt's own error
		}
	}
	wall := time.Since(start)
	var pe *CellPanicError
	errors.As(err, &pe)
	for k, i := range u.indices {
		r := Result{Label: cells[i].Label, Wall: wall, Attempts: attempts}
		switch {
		case err == nil:
			r.Stats = outs[k].Stats
			r.Extras = outs[k].Extras
		case pe != nil:
			r.Err = &CellPanicError{Label: cells[i].Label, Value: pe.Value, Stack: pe.Stack}
		default:
			r.Err = err
		}
		results[i] = r
		if opts.Collector != nil {
			opts.Collector.CellFinished(CellFinish{
				Index: i, Label: r.Label, QueueWait: queueWait, Wall: r.Wall,
				Attempts: r.Attempts, Refs: r.Stats.Accesses,
				Outcome: OutcomeOf(r.Err), Err: r.Err, Extras: r.Extras,
			})
		}
	}
}

// attemptUnit runs one attempt of a unit, recovering panics and bounding
// the attempt by the per-cell timeout scaled to the member count (a
// column does the work of that many cells in one unit).
func attemptUnit(ctx context.Context, u unit, cells []Cell, timeout time.Duration) (outs []ColumnOutcome, err error) {
	first := cells[u.indices[0]]
	defer func() {
		if v := recover(); v != nil {
			outs, err = nil, &CellPanicError{Label: first.Label, Value: v, Stack: debug.Stack()}
		}
	}()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout * time.Duration(len(u.indices)))
	}
	var refs []trace.Ref
	if first.Stream != nil {
		if refs, err = first.Stream(); err != nil {
			return nil, err
		}
	}
	if err := stepErr(ctx, deadline); err != nil {
		return nil, err
	}
	col, err := u.newColumn()
	if err != nil {
		return nil, err
	}
	if whole, ok := col.(WholeStreamColumn); ok {
		whole.Batch(refs) // one call, even over an empty stream
		if err := whole.Err(); err != nil {
			return nil, err
		}
	} else {
		for len(refs) > 0 {
			n := min(driveChunk, len(refs))
			col.Batch(refs[:n])
			refs = refs[n:]
			if len(refs) > 0 {
				if err := stepErr(ctx, deadline); err != nil {
					return nil, err
				}
			}
		}
	}
	outs = col.Outcomes()
	if len(outs) != len(u.indices) {
		return nil, fmt.Errorf("engine: column produced %d outcomes for %d member cells", len(outs), len(u.indices))
	}
	return outs, nil
}
