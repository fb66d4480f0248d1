package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/metrics"
	"repro/internal/static"
	"repro/internal/table"
	"repro/internal/trace"
)

// StaticResult compares profile-guided static exclusion ([McF89], the
// compiler approach of §2's related work) with dynamic exclusion. Static
// exclusion is evaluated twice: with a self profile (trained on the very
// stream it runs, the compiler's best case) and with a phase-split
// profile (trained on the first half, run on the second — the realistic
// case where the profile goes stale). All rates are suite averages
// (fractions).
type StaticResult struct {
	Geom                          cache.Geometry
	DM, StaticSelf, StaticStale   float64
	DE, OPT                       float64
	AvgExcludedSelf, AvgBlocksTot float64
}

// Static runs the comparison at the conflict-heavy 8KB point. Its dm,
// de and opt numbers are Figure 4's 8KB cells; static exclusion trains
// on whole streams, so it is a body of its own over the engine's pool.
func Static(w *Workloads) StaticResult {
	res := StaticResult{Geom: ablGeom}
	rs := w.results(points("instr", res.Geom, trio(false)...))
	names := w.Names()
	n := len(names)
	selfs, stales := make([]float64, n), make([]float64, n)
	excl, blocks := make([]float64, n), make([]float64, n)
	if err := engine.ForEach(w.cfg.ctx(), n, w.cfg.Workers, func(i int) {
		refs := w.Instr(names[i])
		// Self profile: trained and evaluated on the full stream.
		selfs[i], excl[i], blocks[i] = staticRate(refs, refs, res.Geom)
		// Stale profile: trained on the first half, evaluated on the
		// second (different phases of the program).
		stales[i], _, _ = staticRate(refs[:len(refs)/2], refs[len(refs)/2:], res.Geom)
	}); err != nil {
		panic(fmt.Errorf("experiments: static: %w", err))
	}
	res.DM = meanMiss(rs[0])
	res.StaticSelf = metrics.Mean(selfs)
	res.StaticStale = metrics.Mean(stales)
	res.DE = meanMiss(rs[1])
	res.OPT = meanMiss(rs[2])
	res.AvgExcludedSelf = metrics.Mean(excl)
	res.AvgBlocksTot = metrics.Mean(blocks)
	return res
}

// staticRate trains a profile on train, derives net-benefit exclusions,
// and measures the miss rate over eval; it also reports the number of
// excluded and total profiled blocks.
func staticRate(train, eval []trace.Ref, geom cache.Geometry) (rate, excluded, blocks float64) {
	p, err := static.NewProfile(geom)
	if err != nil {
		panic(err)
	}
	p.Train(train)
	ex := p.NetExclusions()
	c, err := static.NewCache(geom, ex)
	if err != nil {
		panic(err)
	}
	cache.RunRefs(c, eval)
	return c.Stats().MissRate(), float64(len(ex)), float64(p.Blocks())
}

// String renders the comparison.
func (r StaticResult) String() string {
	t := table.New("Extra — static (profile-guided) vs dynamic exclusion (S=8KB, b=4B)",
		"policy", "suite avg miss", "needs")
	t.AddRow("direct-mapped", metrics.Pct(r.DM, 3), "—")
	t.AddRow("static exclusion (self profile)", metrics.Pct(r.StaticSelf, 3), "profile + recompile")
	t.AddRow("static exclusion (stale profile)", metrics.Pct(r.StaticStale, 3), "profile + recompile")
	t.AddRow("dynamic exclusion", metrics.Pct(r.DE, 3), "2 bits/line of hardware")
	t.AddRow("optimal direct-mapped", metrics.Pct(r.OPT, 3), "an oracle")
	t.AddNote("self profiles exclude %.0f of %.0f blocks on average (net-benefit rule: fills > hits)",
		r.AvgExcludedSelf, r.AvgBlocksTot)
	t.AddNote("the paper (§2): reordering/exclusion by the compiler works but 'required instruction")
	t.AddNote("frequency information'; dynamic exclusion needs 'no changes to the compiler'")
	var b strings.Builder
	b.WriteString(t.String())
	return b.String()
}
