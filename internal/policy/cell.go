package policy

import (
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/trace"
)

// Cell returns an engine cell body for the spec: Direct for whole-stream
// families, Policy otherwise, so sweep grids need no per-policy
// switching. Label, Geometry, and Stream are left for the caller to
// fill in; the engine hands the cell's Geometry to the returned
// closure.
func (s Spec) Cell() engine.Cell {
	fam, _ := familyByName(s.family)
	if fam.Direct {
		return engine.Cell{
			Direct: func(refs []trace.Ref, geom cache.Geometry) (cache.Stats, error) {
				return s.optWindow(refs, geom, 0)
			},
		}
	}
	return engine.Cell{
		Policy: func(geom cache.Geometry) (cache.Simulator, error) {
			return s.Build(geom)
		},
	}
}
