package experiments

import "repro/internal/metrics"

// Fig14Result holds the data-cache sweep (§7).
type Fig14Result struct {
	DM, DE, OPT metrics.Series
	Reduction   metrics.Series
}

// Fig14 reproduces Figure 14: dynamic exclusion applied to the data
// references of the benchmarks, versus cache size (b = 4B).
func Fig14(w *Workloads) Fig14Result {
	dm, de, op := sweepAverages(w, "data", standardSizes(), 4, false)
	return Fig14Result{
		DM: dm, DE: de, OPT: op,
		Reduction: metrics.ReductionSeries("DE reduction", dm, de),
	}
}

// String renders the sweep.
func (r Fig14Result) String() string {
	t := reductionTable("Figure 14 — data-cache miss rate vs cache size (b=4B)",
		"cache size", kbLabel, r.DM, r.DE, r.OPT, r.Reduction)
	t.AddNote("paper: a small improvement at small sizes, little or none at large sizes —")
	t.AddNote("data reference patterns differ and direct-mapped is already closer to optimal")
	return t.String()
}

// Fig15Result holds the combined instruction+data cache sweep (§7).
type Fig15Result struct {
	DM, DE, OPT metrics.Series
	Reduction   metrics.Series
}

// Fig15 reproduces Figure 15: dynamic exclusion on a combined I+D cache,
// versus cache size (b = 4B).
func Fig15(w *Workloads) Fig15Result {
	dm, de, op := sweepAverages(w, "mixed", standardSizes(), 4, false)
	return Fig15Result{
		DM: dm, DE: de, OPT: op,
		Reduction: metrics.ReductionSeries("DE reduction", dm, de),
	}
}

// String renders the sweep.
func (r Fig15Result) String() string {
	t := reductionTable("Figure 15 — combined I+D cache miss rate vs cache size (b=4B)",
		"cache size", kbLabel, r.DM, r.DE, r.OPT, r.Reduction)
	t.AddNote("paper: improvement near the instruction-cache level at small sizes (instruction")
	t.AddNote("references dominate) and smaller at large sizes (data references dominate)")
	return t.String()
}
