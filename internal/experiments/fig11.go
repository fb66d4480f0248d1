package experiments

import (
	"fmt"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/table"
)

// Fig11Sizes is the line-size axis of Figure 11.
var Fig11Sizes = []uint64{4, 8, 16, 32, 64}

// Fig11CacheSize is the fixed cache size of Figures 11 and 13 (32KB).
const Fig11CacheSize = 32 << 10

// Fig11Result holds suite-average miss rates (percent) per line size for
// the three policies. Dynamic exclusion and the optimal cache both use
// the §6 last-line buffer so excluded lines keep their spatial locality.
type Fig11Result struct {
	DM, DE, OPT metrics.Series
	// Reduction is the DE %-improvement at each line size.
	Reduction metrics.Series
}

// Fig11 reproduces Figure 11: instruction-cache miss rate versus line
// size at a fixed 32KB capacity.
func Fig11(w *Workloads) Fig11Result {
	var res Fig11Result
	res.DM.Name, res.DE.Name, res.OPT.Name = "direct-mapped", "dynamic exclusion", "optimal direct-mapped"
	var pts []point
	for _, line := range Fig11Sizes {
		pts = append(pts, points("instr", cache.DM(Fig11CacheSize, line), trio(true)...)...)
	}
	rs := w.results(pts)
	for li, line := range Fig11Sizes {
		x := float64(line)
		res.DM.Points = append(res.DM.Points, metrics.Point{X: x, Y: 100 * meanMiss(rs[3*li])})
		res.DE.Points = append(res.DE.Points, metrics.Point{X: x, Y: 100 * meanMiss(rs[3*li+1])})
		res.OPT.Points = append(res.OPT.Points, metrics.Point{X: x, Y: 100 * meanMiss(rs[3*li+2])})
	}
	res.Reduction = metrics.ReductionSeries("DE reduction", res.DM, res.DE)
	return res
}

// String renders the line-size sweep.
func (r Fig11Result) String() string {
	t := reductionTable("Figure 11 — I-cache miss rate vs line size (S=32KB, last-line buffer)",
		"line size", func(x float64) string { return fmt.Sprintf("%gB", x) }, r.DM, r.DE, r.OPT, r.Reduction)
	t.AddNote("paper: the %% improvement declines with line size (internal fragmentation adds conflicts)")
	return t.String()
}

// reductionTable lays out a sweep's three miss-rate curves and the DE
// reduction, one row per x value; xName and xLabel name and format the
// swept axis.
func reductionTable(title, xName string, xLabel func(float64) string, dm, de, op, red metrics.Series) *table.Table {
	t := table.New(title, xName, "direct-mapped", "dynamic excl", "optimal DM", "DE reduction")
	for i, p := range dm.Points {
		t.AddRow(xLabel(p.X), pctf(p.Y), pctf(de.Points[i].Y), pctf(op.Points[i].Y), pctf(red.Points[i].Y))
	}
	return t
}
