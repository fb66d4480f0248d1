package faultinject

import (
	"fmt"
	"strconv"
	"strings"

	"repro/internal/cache"
	"repro/internal/grid"
	"repro/internal/trace"
)

// Directive is the one fault directive of the CLIs and the service:
// dynex-sweep's -inject flag and a dynex-serve job's inject field both
// parse and apply it here, so an injected sweep and an injected job of
// the same grid fail the same cells.
type Directive struct {
	// StreamFail, when > 0, makes each source's stream fail transiently
	// that many times — one budget per source, so -retries (or the
	// server's retry) clears it.
	StreamFail int
	// Panic, when non-empty, makes every cell whose label contains it
	// panic: a Policy cell on its first access, a Direct cell on entry.
	Panic string
}

// ParseDirective decodes "stream-fail=N" (N > 0) or "panic=SUBSTR". The
// empty string is the zero Directive, which injects nothing; anything
// else, trailing input included, is an error.
func ParseDirective(s string) (Directive, error) {
	mode, arg, _ := strings.Cut(s, "=")
	n, err := strconv.Atoi(arg)
	switch {
	case s == "":
		return Directive{}, nil
	case mode == "stream-fail" && err == nil && n > 0:
		return Directive{StreamFail: n}, nil
	case mode == "panic" && arg != "":
		return Directive{Panic: arg}, nil
	}
	return Directive{}, fmt.Errorf("%q: want stream-fail=N or panic=SUBSTR", s)
}

// Apply rewires the plan's cells with the directive's faults. Panicking
// cells are marked in p.Isolated so they never join a column, whose
// kernel would bypass the panicking simulator.
func (d Directive) Apply(p *grid.Plan) {
	if d.StreamFail > 0 {
		// Grid order is source-major: source s owns one contiguous block.
		block := p.Spec.NumCells() / max(len(p.Spec.Sources), 1)
		for s, src := range p.Spec.Sources {
			flaky := FlakyStream(src.Stream, NewBudget(d.StreamFail))
			for i := s * block; i < (s+1)*block; i++ {
				p.Cells[i].Stream = flaky
			}
		}
	}
	if d.Panic == "" {
		return
	}
	if p.Isolated == nil {
		p.Isolated = make([]bool, len(p.Cells))
	}
	for i := range p.Cells {
		cell := &p.Cells[i]
		if !strings.Contains(cell.Label, d.Panic) {
			continue
		}
		p.Isolated[i] = true
		if inner := cell.Policy; inner != nil {
			cell.Policy = func(g cache.Geometry) (cache.Simulator, error) {
				sim, err := inner(g)
				if err != nil {
					return nil, err
				}
				return NewPanicSim(sim, 1), nil
			}
		} else if cell.Direct != nil {
			cell.Direct = func([]trace.Ref, cache.Geometry) (cache.Stats, error) {
				panic("faultinject: injected panic in direct cell")
			}
		}
	}
}
