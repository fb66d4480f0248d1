package experiments

import (
	"strings"

	"repro/internal/metrics"
	"repro/internal/table"
)

// Fig12Result holds the suite-average miss-rate curves and the DE
// improvement at 16-byte lines across cache sizes.
type Fig12Result struct {
	DM, DE, OPT metrics.Series
	Reduction   metrics.Series
}

// Fig12 reproduces Figure 12: dynamic exclusion performance for a range
// of cache sizes at b = 16B (with the last-line buffer).
func Fig12(w *Workloads) Fig12Result {
	dm, de, op := sweepAverages(w, "instr", standardSizes(), 16, true)
	return Fig12Result{
		DM: dm, DE: de, OPT: op,
		Reduction: metrics.ReductionSeries("DE reduction", dm, de),
	}
}

// String renders the sweep.
func (r Fig12Result) String() string {
	var b strings.Builder
	t := reductionTable("Figure 12 — I-cache miss rate vs cache size (b=16B, last-line buffer)",
		"cache size", kbLabel, r.DM, r.DE, r.OPT, r.Reduction)
	x, y := r.Reduction.PeakY()
	t.AddNote("DE improvement peaks at %.1f%% at %gKB (paper, b=16B: 33%% at 32KB)", y, x)
	b.WriteString(t.String())
	b.WriteByte('\n')
	b.WriteString(table.Chart{
		Title:   "Figure 12 (chart)",
		YLabel:  "average miss rate (%)",
		XFormat: kbLabel,
		Series:  []metrics.Series{r.DM, r.DE, r.OPT},
	}.String())
	return b.String()
}
