package experiments

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/table"
)

// Figure 13 compares the efficiency of adding dynamic exclusion with
// simply doubling the cache: an 8KB direct-mapped baseline (16B lines)
// versus the same cache with DE (hashed store, four hit-last bits per
// line, plus a last-line buffer) versus a 16KB direct-mapped cache.

// Fig13Result holds the three designs' measurements.
type Fig13Result struct {
	// Miss rates (fractions), suite averages.
	BaseDM, DE, BigDM float64
	// Size overheads relative to the baseline, in percent of storage bits.
	DESizePct, BigSizePct float64
	// Miss-rate reductions relative to the baseline, in percent.
	DEMissPct, BigMissPct float64
}

// fig13Base is the baseline geometry.
var fig13Base = cache.DM(8<<10, 16)

// Fig13 reproduces the Figure 13 efficiency table.
func Fig13(w *Workloads) Fig13Result {
	dm := policy.MustParse("dm")
	pts := points("instr", fig13Base, dm, policy.MustParse("de:store=hashed*4,lastline"))
	pts = append(pts, points("instr", cache.DM(16<<10, 16), dm)...) // both dm cells are Figure 12's
	rs := w.results(pts)
	r := Fig13Result{
		BaseDM: meanMiss(rs[0]),
		DE:     meanMiss(rs[1]),
		BigDM:  meanMiss(rs[2]),
	}
	r.DESizePct = deOverheadPct(fig13Base)
	r.BigSizePct = 100
	r.DEMissPct = metrics.Reduction(r.BaseDM, r.DE)
	r.BigMissPct = metrics.Reduction(r.BaseDM, r.BigDM)
	return r
}

// deOverheadPct computes the storage overhead of dynamic exclusion for a
// geometry, in percent of the baseline cache's bits: one sticky bit and
// one hit-last copy per line, four hashed hit-last bits per line, and a
// last-line buffer (data + tag + valid). Addresses are 32-bit, as on the
// paper's DECstation.
func deOverheadPct(g cache.Geometry) float64 {
	const addrBits = 32
	offsetBits := bits.Len64(g.LineSize - 1)
	indexBits := bits.Len64(g.Sets() - 1)
	tagBits := addrBits - offsetBits - indexBits
	lineBits := 8*g.LineSize + uint64(tagBits) + 1 // data + tag + valid
	baseBits := lineBits * g.Lines()
	added := g.Lines()*(1+1+4) + // sticky + hit-last copy + hashed bits
		8*g.LineSize + uint64(addrBits-offsetBits) + 1 // last-line buffer
	return 100 * float64(added) / float64(baseBits)
}

// Efficiency returns the paper's headline ratio: miss-reduction per unit
// of size growth for DE, divided by the same for doubling capacity.
func (r Fig13Result) Efficiency() float64 {
	if r.DESizePct == 0 || r.BigSizePct == 0 || r.BigMissPct == 0 {
		return 0
	}
	return (r.DEMissPct / r.DESizePct) / (r.BigMissPct / r.BigSizePct)
}

// String renders the efficiency table.
func (r Fig13Result) String() string {
	t := table.New("Figure 13 — dynamic exclusion efficiency (b=16B)",
		"", "8KB DM", "8KB DM+DE", "16KB DM")
	t.AddRow("Δ size", "—", fmt.Sprintf("%.1f%%", r.DESizePct), fmt.Sprintf("%.0f%%", r.BigSizePct))
	t.AddRow("miss rate", metrics.Pct(r.BaseDM, 3), metrics.Pct(r.DE, 3), metrics.Pct(r.BigDM, 3))
	t.AddRow("Δ miss rate", "—", fmt.Sprintf("%.1f%%", r.DEMissPct), fmt.Sprintf("%.1f%%", r.BigMissPct))
	t.AddRow("Δ miss / Δ size", "—",
		fmt.Sprintf("%.2f", r.DEMissPct/r.DESizePct),
		fmt.Sprintf("%.2f", r.BigMissPct/r.BigSizePct))
	t.AddNote("adding DE is %.1fx as efficient as doubling capacity (paper: ~15x)", r.Efficiency())
	t.AddNote("DE here is the realizable config: hashed store with 4 hit-last bits per line + last-line buffer")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
