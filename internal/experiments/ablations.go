package experiments

import (
	"fmt"
	"strings"

	"repro/internal/cache"
	"repro/internal/metrics"
	"repro/internal/patterns"
	"repro/internal/policy"
	"repro/internal/table"
)

// AblationsResult bundles the design-choice studies DESIGN.md calls out:
// sticky depth, hit-last storage size, cold-start default, the victim-
// cache alternative, and the last-line buffer.
type AblationsResult struct {
	Sticky    *table.Table
	Hashed    *table.Table
	ColdStart *table.Table
	Victim    *table.Table
	LastLine  *table.Table
}

// ablGeom is the conflict-heavy operating point used by the ablations.
var ablGeom = cache.DM(8<<10, 4)

// Ablations runs all ablation studies. Each study reads suite averages
// through avg, so the studies run twice: the first pass only declares
// every average (and lays out throwaway tables), the declared cells run
// as one plan, and the second pass lays the tables out from them.
// Configurations are policy specs, so the tables read as the exact
// strings a -policies flag would take.
func Ablations(w *Workloads) AblationsResult {
	var pts []point
	rates := map[point]float64{}
	avg := func(kind, specText string, geom cache.Geometry) float64 {
		p := points(kind, geom, policy.MustParse(specText))[0]
		pts = append(pts, p)
		return rates[p]
	}
	ablate := func() AblationsResult {
		return AblationsResult{
			Sticky:    ablateSticky(avg),
			Hashed:    ablateHashed(avg),
			ColdStart: ablateColdStart(avg),
			Victim:    ablateVictim(avg),
			LastLine:  ablateLastLine(avg),
		}
	}
	ablate()
	for i, rs := range w.results(pts) {
		rates[pts[i]] = meanMiss(rs)
	}
	return ablate()
}

// avgFunc returns the suite-average miss rate of a policy spec over
// kind streams at geom.
type avgFunc func(kind, specText string, geom cache.Geometry) float64

// ablateSticky sweeps the multi-sticky extension [McF91a]: deeper sticky
// counters lock residents against (abc)-style conflicts at the cost of
// longer training on plain alternation.
func ablateSticky(avg avgFunc) *table.Table {
	t := table.New("Ablation — sticky depth (S=8KB, b=4B; plus the (abc)^50 pattern)",
		"config", "suite avg miss", "(abc)^50 miss")
	three := patterns.ThreeWay(50).Refs(0, ablGeom.Size)
	for _, k := range []int{1, 2, 4, 8} {
		specStr := fmt.Sprintf("de:sticky=%d", k)
		rate := avg("instr", specStr, ablGeom)
		pat := specRate(policy.MustParse(specStr), three, ablGeom)
		t.AddRow(fmt.Sprintf("sticky=%d", k), metrics.Pct(rate, 3), metrics.Pct(pat, 1))
	}
	dm := avg("instr", "dm", ablGeom)
	t.AddRow("direct-mapped", metrics.Pct(dm, 3), "100.0%")
	t.AddNote("paper §4: extra sticky bits fix (abc)^N but give mixed results overall")
	return t
}

// ablateHashed sweeps the hashed hit-last table size; the paper finds
// four bits per L1 line suffice.
func ablateHashed(avg avgFunc) *table.Table {
	t := table.New("Ablation — hashed hit-last bits per cache line (S=8KB, b=4B)",
		"store", "suite avg miss")
	for _, bitsPerLine := range []int{1, 2, 4, 8, 16} {
		rate := avg("instr", fmt.Sprintf("de:store=hashed*%d", bitsPerLine), ablGeom)
		t.AddRow(fmt.Sprintf("hashed %d bits/line", bitsPerLine), metrics.Pct(rate, 3))
	}
	ideal := avg("instr", "de", ablGeom)
	t.AddRow("ideal table", metrics.Pct(ideal, 3))
	return t
}

// ablateColdStart compares the two initial values of unknown hit-last
// bits (§5's assume-hit vs assume-miss, applied to the ideal table).
func ablateColdStart(avg avgFunc) *table.Table {
	t := table.New("Ablation — cold-start default of the hit-last table (b=4B)",
		"cache size", "assume-miss", "assume-hit", "direct-mapped")
	for _, size := range []uint64{8 << 10, 32 << 10} {
		geom := cache.DM(size, 4)
		miss := avg("instr", "de:cold=miss", geom)
		hit := avg("instr", "de", geom)
		dm := avg("instr", "dm", geom)
		t.AddRow(kbLabel(float64(size)/1024), metrics.Pct(miss, 3), metrics.Pct(hit, 3), metrics.Pct(dm, 3))
	}
	t.AddNote("assume-miss can double first-touch misses of fresh loops (the paper's nasa7/tomcatv effect)")
	return t
}

// ablateVictim reproduces the related-work comparison (§2): a victim
// cache fixes small conflicting sets (data-like) while dynamic exclusion
// is most effective on instruction streams with many conflicting lines.
func ablateVictim(avg avgFunc) *table.Table {
	t := table.New("Ablation — victim cache [Jou90] vs dynamic exclusion (S=8KB, b=4B)",
		"stream", "direct-mapped", "victim(4)", "victim(8)", "dynamic excl")
	for _, kind := range []struct{ name, kind string }{{"instructions", "instr"}, {"data", "data"}} {
		dm := avg(kind.kind, "dm", ablGeom)
		v4 := avg(kind.kind, "victim", ablGeom)
		v8 := avg(kind.kind, "victim:entries=8", ablGeom)
		de := avg(kind.kind, "de", ablGeom)
		t.AddRow(kind.name, metrics.Pct(dm, 3), metrics.Pct(v4, 3), metrics.Pct(v8, 3), metrics.Pct(de, 3))
	}
	return t
}

// ablateLastLine isolates the §6 line-buffer alternatives at a 16-byte
// line size: no buffer, the last-line register (options 1/2), and the
// stream buffer (option 3).
func ablateLastLine(avg avgFunc) *table.Table {
	geom := cache.DM(32<<10, 16)
	t := table.New("Ablation — §6 line-buffer alternatives at b=16B (S=32KB)",
		"config", "suite avg miss")
	// At 16-byte lines the bare "de" spec auto-enables the buffer, so the
	// no-buffer arm must say nolastline explicitly.
	with := avg("instr", "de:lastline", geom)
	without := avg("instr", "de:nolastline", geom)
	streamed := avg("instr", "de-stream", geom)
	dm := avg("instr", "dm", geom)
	t.AddRow("DE without buffer", metrics.Pct(without, 3))
	t.AddRow("DE + last-line register", metrics.Pct(with, 3))
	t.AddRow("DE + stream buffer (depth 4)", metrics.Pct(streamed, 3))
	t.AddRow("direct-mapped", metrics.Pct(dm, 3))
	t.AddNote("without a buffer, excluding a multi-instruction line re-misses every sequential fetch (§6);")
	t.AddNote("the stream buffer additionally hides sequential compulsory misses (its hits are not L2 fetches)")
	return t
}

// String renders all ablation tables.
func (r AblationsResult) String() string {
	var b strings.Builder
	for _, t := range []*table.Table{r.Sticky, r.Hashed, r.ColdStart, r.Victim, r.LastLine} {
		b.WriteString(t.String())
		b.WriteByte('\n')
	}
	return b.String()
}
