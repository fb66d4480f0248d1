package policy

import (
	"context"
	"fmt"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/trace"
)

// Measurement is the outcome of one windowed run: the warmup-subtracted
// stats, plus the policy-specific counters over the same window. Extras
// is non-nil exactly when the spec's unit reports counters (the
// whole-stream opt policy has none).
type Measurement struct {
	Stats  cache.Stats
	Extras []cache.Counter
}

// Window measures the spec at geom over the post-warmup window of refs:
// the first warmup references prime the cache, and the returned stats
// and counters cover only the remainder. warmup == 0 measures the whole
// stream; a warmup that is negative or leaves nothing to measure is an
// error. This is the one warmup-snapshot implementation shared by every
// CLI and experiment.
//
// Window runs the cell's engine unit (Unit) through the engine's drive
// loop, so ctx is checked between chunks and a long single-cell run
// stops promptly on cancellation; the warmup snapshot of the unit's
// Outcomes lands exactly on the warmup boundary. The whole-stream opt
// policy needs the stream's future for every decision, so it is
// simulated in one opt.SimulateDMWindow call, interruptible only before
// it starts.
func Window(ctx context.Context, s Spec, geom cache.Geometry, refs []trace.Ref, warmup int) (Measurement, error) {
	if warmup < 0 {
		return Measurement{}, fmt.Errorf("policy: negative warmup %d", warmup)
	}
	if warmup > 0 && warmup >= len(refs) {
		return Measurement{}, fmt.Errorf("policy: warmup %d consumes the whole %d-reference stream; nothing left to measure", warmup, len(refs))
	}
	if err := ctx.Err(); err != nil {
		return Measurement{}, err
	}
	if s.family == "opt" {
		stats, err := s.optWindow(refs, geom, warmup)
		return Measurement{Stats: stats}, err
	}
	unit, err := s.Unit(geom)()
	if err != nil {
		return Measurement{}, err
	}
	if err := engine.Drive(ctx, unit, refs[:warmup]); err != nil {
		return Measurement{}, err
	}
	warm := unit.Outcomes()[0]
	if err := engine.Drive(ctx, unit, refs[warmup:]); err != nil {
		return Measurement{}, err
	}
	out := unit.Outcomes()[0]
	m := Measurement{Stats: out.Stats.Sub(warm.Stats)}
	if out.Extras != nil {
		m.Extras = cache.SubCounters(out.Extras, warm.Extras)
	}
	return m, nil
}

// Unit returns the constructor of the unit the engine runs one cell of
// the spec at geom as: the spec's one-member column kernel where Column
// accepts it, and otherwise the cell's own body behind
// engine.Cell.NewColumn. Window drives it, and the single-cell
// conformance battery checks it against scalar Access.
func (s Spec) Unit(geom cache.Geometry) func() (engine.Column, error) {
	if newCol, ok := s.Column(geom.LineSize, []uint64{geom.Size}); ok {
		return newCol
	}
	cell := s.Cell()
	cell.Geometry = geom
	return cell.NewColumn
}

// optWindow simulates the whole-stream optimal policy over refs at geom
// (Ways ignored), measuring after warmup. An invalid geometry is an
// error, checked before opt.SimulateDMWindow, which would panic on it.
func (s Spec) optWindow(refs []trace.Ref, geom cache.Geometry, warmup int) (cache.Stats, error) {
	g := geom
	g.Ways = 1
	if err := g.Validate(); err != nil {
		return cache.Stats{}, err
	}
	return opt.SimulateDMWindow(refs, g, s.lastLineEnabled(g), warmup), nil
}
