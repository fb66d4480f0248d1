package grid

import (
	"context"
	"errors"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
)

// Run is one execution of a plan against an optional checkpoint
// journal, the sequence dynex-sweep and every dynex-serve job share:
// restore journaled cells (Resume), then form columns over the rest,
// run them, and journal each success before the caller sees it
// (Execute). Sharing it is what makes a job's CSV and journal
// byte-identical to a sweep's.
type Run struct {
	Plan    Plan
	Journal *checkpoint.Journal // nil: nothing restored, nothing journaled
	// Results[i] describes Plan.Cells[i]: Resume fills the restored
	// cells, Execute the pending ones.
	Results []engine.Result
	// Restored and Pending split the plan indices, each in plan order.
	Restored, Pending []int
}

// Resume starts a run of the plan: every cell the journal (nil: none)
// already holds is restored into Results without calling its Stream,
// and the rest are pending.
func (p Plan) Resume(journal *checkpoint.Journal) *Run {
	r := &Run{Plan: p, Journal: journal, Results: make([]engine.Result, len(p.Cells))}
	for i, cell := range p.Cells {
		if journal != nil {
			if rec, ok := journal.Lookup(p.FPs[i]); ok {
				r.Results[i] = engine.Result{Label: cell.Label, Stats: rec.Stats,
					Attempts: rec.Attempts, Wall: time.Duration(rec.WallNS)}
				r.Restored = append(r.Restored, i)
				continue
			}
		}
		r.Pending = append(r.Pending, i)
	}
	return r
}

// RunOptions tunes Execute.
type RunOptions struct {
	// Engine tunes the engine run. Its OnResult sees plan indices, a
	// success only once it is journaled, and no interrupted cell (a
	// context error is not an outcome: the cell re-runs on resume).
	Engine engine.Options
	// Scalar is the column-free reference: no column kernels, so every
	// Policy cell runs its own simulator one Access per reference (the
	// semantic reference the kernels are checked against) and every opt
	// cell its Direct path.
	Scalar bool
	// Journaled, when non-nil, gets each journal append's plan index,
	// latency and error. A failed append costs durability only.
	Journaled func(i int, took time.Duration, err error)
}

// Execute runs the pending cells into Results, as column units
// (Plan.Partition) unless opts.Scalar is set. It returns the engine's
// error: for an interrupted run, the context error its unreached cells
// also carry.
func (r *Run) Execute(ctx context.Context, opts RunOptions) error {
	cells, groups := r.units(opts.Scalar)
	eo := opts.Engine
	onResult := eo.OnResult
	eo.OnResult = func(k int, res engine.Result) {
		i := r.Pending[k]
		if res.Err == nil && r.Journal != nil {
			start := time.Now()
			err := r.Journal.Append(checkpoint.Record{Fingerprint: r.Plan.FPs[i], Label: res.Label,
				Stats: res.Stats, Attempts: res.Attempts, WallNS: int64(res.Wall)})
			if opts.Journaled != nil {
				opts.Journaled(i, time.Since(start), err)
			}
		}
		if onResult != nil && !errors.Is(res.Err, context.Canceled) &&
			!errors.Is(res.Err, context.DeadlineExceeded) {
			onResult(i, res)
		}
	}
	fresh, err := engine.RunGrouped(ctx, cells, groups, eo)
	for k, i := range r.Pending {
		if fresh != nil {
			r.Results[i] = fresh[k]
		}
	}
	return err
}

// units returns the engine's input: the pending cells, in Pending
// order, and their column groups — every column-eligible cell's, lone
// cells included as one-member columns, or none under scalar.
func (r *Run) units(scalar bool) ([]engine.Cell, []engine.Group) {
	cells := make([]engine.Cell, len(r.Pending))
	for k, i := range r.Pending {
		cells[k] = r.Plan.Cells[i]
	}
	if scalar {
		return cells, nil
	}
	return cells, r.Plan.Partition(r.Pending, nil)
}
