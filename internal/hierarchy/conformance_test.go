package hierarchy_test

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/conformance"
	"repro/internal/hierarchy"
)

func TestConformance(t *testing.T) {
	for _, st := range []hierarchy.Strategy{
		hierarchy.Baseline, hierarchy.AssumeHit, hierarchy.AssumeMiss,
		hierarchy.Hashed, hierarchy.Ideal,
	} {
		st := st
		conformance.Check(t, "hierarchy-"+st.String(),
			conformance.Options{EventualHit: true},
			func() cache.Simulator {
				return hierarchy.Must(hierarchy.Config{
					L1:       cache.DM(16<<10, 16),
					L2:       cache.DM(64<<10, 16),
					Strategy: st,
				})
			})
	}
}
