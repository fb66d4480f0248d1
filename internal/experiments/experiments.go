// Package experiments regenerates every table and figure of the paper's
// evaluation (Figures 3–5, 7–9, 11–15, and the §3 pattern analysis), plus
// the ablations DESIGN.md calls out. Each experiment is a function from a
// shared workload cache to a structured result that renders as a text
// table/chart; cmd/dynex-experiments drives them and EXPERIMENTS.md
// records paper-vs-measured values.
package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/hierarchy"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/trace"
)

// Config tunes an experiment run.
type Config struct {
	// Refs is the number of references collected per benchmark and stream
	// kind (default 1,000,000). The paper used the first 10M references
	// of each benchmark and notes full-stream results are similar; our
	// synthetic workloads are stationary after a few phase cycles, so 1M
	// is the default and -refs raises it.
	Refs int
	// SeedOffset shifts every benchmark's generation seed, producing a
	// structurally similar but distinct workload suite — a sensitivity
	// check that conclusions do not hinge on one particular random CFG.
	SeedOffset int64
	// Workers bounds the engine's simulation parallelism (0 = GOMAXPROCS).
	Workers int
	// Collector, when non-nil, receives the engine's execution events
	// for every cell the experiments schedule (cmd/dynex-experiments
	// threads its telemetry collector through here). Purely
	// observational; see internal/engine's Collector.
	Collector engine.Collector
	// Ctx, when non-nil, cancels the simulation engine mid-experiment:
	// workers stop picking up cells and running cells stop at the next
	// chunk boundary (cmd/dynex-experiments threads its signal context
	// through here). A cancelled experiment panics with an error wrapping
	// the context error; the CLI recovers it into a clean exit. Nil means
	// context.Background().
	Ctx context.Context
}

func (c Config) refs() int {
	if c.Refs <= 0 {
		return 1_000_000
	}
	return c.Refs
}

func (c Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// Workloads lazily collects and caches the suite's reference streams,
// and memoizes the result of every cell a runner declares, so no stream
// is generated and no cell simulated twice (DESIGN.md §3). It is
// goroutine-safe: engine workers materialize streams concurrently, each
// exactly once, and runner requests take turns on the memo.
type Workloads struct {
	cfg     Config
	suite   []spec.Benchmark
	streams map[streamKey]func() []trace.Ref // fixed at construction

	// mu is held for a whole request (results), engine run included, so
	// a Config.Collector must not call back into the Workloads.
	mu   sync.Mutex
	memo map[cell]engine.Result
}

// streamKey identifies one cached stream.
type streamKey struct {
	kind string // "instr", "data", or "mixed"
	name string // benchmark name
}

// point is one setting a runner reads across the suite: a policy at one
// geometry over one stream kind, or, when ratio is nonzero, the
// two-level system of Figures 7–9 with that L2:L1 size ratio.
type point struct {
	kind       string // "instr", "data", or "mixed"
	size, line uint64
	policy     string // canonical policy.Spec text; "" for a hierarchy point
	strategy   hierarchy.Strategy
	ratio      int
}

// cell is one point over one benchmark's stream: the memo's key.
type cell struct {
	point
	bench string
}

// MetricMemoCells counts the cells experiment runners declare, by
// outcome: "hit" (served by a Workloads memo, or declared twice in one
// request) or "simulated" (run to completion).
const MetricMemoCells = "dynex_experiments_memo_cells_total"

var memoCells = obs.Default.NewCounterVec(MetricMemoCells,
	"Experiment cells declared, by outcome: served from the result memo (hit) or simulated.", []string{"outcome"}, 2)

// NewWorkloads returns an empty cache over the standard suite (or a
// seed-shifted variant when cfg.SeedOffset is nonzero).
func NewWorkloads(cfg Config) *Workloads {
	w := &Workloads{cfg: cfg, streams: map[streamKey]func() []trace.Ref{}, memo: map[cell]engine.Result{}}
	if cfg.SeedOffset == 0 {
		w.suite = spec.Suite()
	} else {
		for _, p := range spec.SuiteParams() {
			p.Seed += cfg.SeedOffset
			w.suite = append(w.suite, spec.MustBuild(p))
		}
	}
	for _, b := range w.suite {
		w.streams[streamKey{"instr", b.Name}] = sync.OnceValue(func() []trace.Ref { return b.Instr(cfg.refs()) })
		w.streams[streamKey{"data", b.Name}] = sync.OnceValue(func() []trace.Ref { return b.Data(cfg.refs()) })
		w.streams[streamKey{"mixed", b.Name}] = sync.OnceValue(func() []trace.Ref { return b.Mixed(cfg.refs()) })
	}
	return w
}

// Suite returns the benchmarks.
func (w *Workloads) Suite() []spec.Benchmark { return w.suite }

// Config returns the configuration the workloads were built with.
func (w *Workloads) Config() Config { return w.cfg }

// Names returns the benchmark names in suite order.
func (w *Workloads) Names() []string {
	out := make([]string, len(w.suite))
	for i, b := range w.suite {
		out[i] = b.Name
	}
	return out
}

// refs returns the cached stream of the given kind for a benchmark,
// generating it on first use.
func (w *Workloads) refs(kind, name string) []trace.Ref {
	gen, ok := w.streams[streamKey{kind, name}]
	if !ok {
		panic(fmt.Sprintf("experiments: unknown benchmark %q", name))
	}
	return gen()
}

// Instr returns (and caches) the benchmark's instruction stream.
func (w *Workloads) Instr(name string) []trace.Ref { return w.refs("instr", name) }

// Data returns (and caches) the benchmark's data stream.
func (w *Workloads) Data(name string) []trace.Ref { return w.refs("data", name) }

// Mixed returns (and caches) the benchmark's combined stream.
func (w *Workloads) Mixed(name string) []trace.Ref { return w.refs("mixed", name) }

// results declares a runner's cells — every point over every benchmark
// — and returns their results: out[i][b] is point i over benchmark b, in
// suite order. The cells the memo lacks run first, as one plan.
func (w *Workloads) results(pts []point) [][]engine.Result {
	w.mu.Lock()
	defer w.mu.Unlock()
	names := w.Names()
	var missing []cell
	declared := map[cell]bool{}
	// List the cells diagonally (benchmark b starts at point b), so the
	// workers that start together synthesize different streams and one
	// policy's columns (opt's hold the most memory) do not all run at
	// once.
	for r := range pts {
		for b, name := range names {
			c := cell{pts[(b+r)%len(pts)], name}
			if _, ok := w.memo[c]; !ok && !declared[c] {
				missing = append(missing, c)
			}
			declared[c] = true
		}
	}
	if len(missing) > 0 {
		w.simulate(missing)
	}
	memoCells.WithLabelValues("hit").Add(uint64(len(pts)*len(names) - len(missing)))
	out := make([][]engine.Result, len(pts))
	for i, p := range pts {
		for _, name := range names {
			out[i] = append(out[i], w.memo[cell{p, name}])
		}
	}
	return out
}

// simulate runs cells as one grid plan and memoizes each one that
// finishes. Cells over one stream share a plan source, so Partition
// still forms the size columns among them; hierarchy cells stay out of
// columns. A failed or cancelled cell is never memoized, so a later
// request re-runs it instead of reading zeros; the first one panics
// with an error wrapping its cause (the CLI recovers a wrapped
// context.Canceled into a clean exit).
func (w *Workloads) simulate(cells []cell) {
	plan := grid.Plan{
		Cells:    make([]engine.Cell, len(cells)),
		Coords:   make([]grid.Coord, len(cells)),
		Isolated: make([]bool, len(cells)),
	}
	sources := map[streamKey]int{}
	for i, c := range cells {
		key := streamKey{c.kind, c.bench}
		if _, ok := sources[key]; !ok {
			sources[key] = len(sources)
		}
		plan.Cells[i] = w.engineCell(c)
		plan.Coords[i] = grid.Coord{Source: sources[key], Size: c.size, Line: c.line, Policy: c.policy}
		plan.Isolated[i] = c.ratio != 0
	}
	before := len(w.memo)
	run := plan.Resume(nil)
	err := run.Execute(w.cfg.ctx(), grid.RunOptions{Engine: engine.Options{
		Workers:   w.cfg.Workers,
		Collector: w.cfg.Collector,
	}})
	var failed error
	for i, r := range run.Results {
		if r.Err == nil && r.Attempts == 0 {
			r.Err = err // the engine rejected the plan before running it
		}
		if r.Err == nil {
			w.memo[cells[i]] = r
		} else if failed == nil {
			failed = fmt.Errorf("experiments: %s: %w", r.Label, r.Err)
		}
	}
	memoCells.WithLabelValues("simulated").Add(uint64(len(w.memo) - before))
	if failed != nil {
		panic(failed)
	}
}

// engineCell builds a cell's simulation: the point's policy at its
// geometry, or a two-level hierarchy.System — a plain Policy cell whose
// Stats are the L1's and whose Extras carry the L2 accesses and misses.
func (w *Workloads) engineCell(c cell) engine.Cell {
	var ec engine.Cell
	if c.ratio != 0 {
		cfg := hierarchy.Config{
			L1:       HierL1,
			L2:       cache.DM(HierL1.Size*uint64(c.ratio), HierL1.LineSize),
			Strategy: c.strategy,
			// §5: the hashed table is sized so its bits match the swept
			// L2 capacity ratio; the paper concludes four bits per L1
			// line suffice.
			HashedBitsPerLine: c.ratio,
		}
		ec.Label = fmt.Sprintf("%s/%s/l2x%d/%s", c.kind, c.bench, c.ratio, c.strategy)
		ec.Policy = func(cache.Geometry) (cache.Simulator, error) { return hierarchy.New(cfg) }
	} else {
		ec = policy.MustParse(c.policy).Cell()
		ec.Label = fmt.Sprintf("%s/%s/%d/%d/%s", c.kind, c.bench, c.size, c.line, c.policy)
		ec.Geometry = cache.DM(c.size, c.line)
	}
	ec.Stream = func() ([]trace.Ref, error) { return w.refs(c.kind, c.bench), nil }
	return ec
}

// points declares specs over kind streams at geom, in spec order.
func points(kind string, geom cache.Geometry, specs ...policy.Spec) []point {
	out := make([]point, len(specs))
	for i, sp := range specs {
		out[i] = point{kind: kind, size: geom.Size, line: geom.LineSize, policy: sp.String()}
	}
	return out
}

// trio is the single-level figures' three policies: direct-mapped,
// dynamic exclusion, and the optimal direct-mapped cache with bypass,
// with the §6 last-line buffer forced on or off. "Dynamic exclusion"
// throughout the single-level experiments means the idealized
// configuration of Figures 3–5: an unbounded hit-last table with
// assume-hit cold start (§5 shows assume-hit is the best realizable
// default).
func trio(lastLine bool) []policy.Spec {
	return []policy.Spec{
		policy.MustParse("dm"),
		policy.MustParse("de").WithLastLine(lastLine),
		policy.MustParse("opt").WithLastLine(lastLine),
	}
}

// missRates returns each result's miss rate (a fraction).
func missRates(rs []engine.Result) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Stats.MissRate()
	}
	return out
}

// meanMiss is the suite-average miss rate of one point's results.
func meanMiss(rs []engine.Result) float64 { return metrics.Mean(missRates(rs)) }

// specRate returns the spec's full-stream miss rate at geom over a
// stream outside the suite (the §3 patterns). Experiments panic on
// errors: every spec here is a literal, so a failure is a programming
// error.
func specRate(sp policy.Spec, refs []trace.Ref, geom cache.Geometry) float64 {
	m, err := policy.Window(context.Background(), sp, geom, refs, 0)
	if err != nil {
		panic("experiments: " + err.Error())
	}
	return m.Stats.MissRate()
}

// sweepAverages computes suite-average miss-rate curves for the three
// policies over the given cache sizes at one line size. The paper's
// Figures 4, 5, 12, 14, and 15 are all instances of this sweep. Its
// (benchmark, policy) size columns run as column units — dm and de on
// single-pass multisim kernels, opt on a column that
// computes the benchmark's next uses once for every size — and the
// figure numbers are identical either way.
func sweepAverages(w *Workloads, kind string, sizes []uint64, lineSize uint64, lastLine bool) (dm, de, op metrics.Series) {
	dm.Name, de.Name, op.Name = "direct-mapped", "dynamic exclusion", "optimal direct-mapped"
	var pts []point
	for _, size := range sizes {
		pts = append(pts, points(kind, cache.DM(size, lineSize), trio(lastLine)...)...)
	}
	res := w.results(pts)
	for si, size := range sizes {
		x := float64(size) / 1024
		dm.Points = append(dm.Points, metrics.Point{X: x, Y: 100 * meanMiss(res[3*si])})
		de.Points = append(de.Points, metrics.Point{X: x, Y: 100 * meanMiss(res[3*si+1])})
		op.Points = append(op.Points, metrics.Point{X: x, Y: 100 * meanMiss(res[3*si+2])})
	}
	return dm, de, op
}

// Runner is one registered experiment.
type Runner struct {
	ID    string
	Title string
	Run   func(w *Workloads) fmt.Stringer
}

// Registry returns every experiment in presentation order.
func Registry() []Runner {
	return []Runner{
		{"sec3", "Section 3: analytic vs simulated conflict patterns", func(w *Workloads) fmt.Stringer { return Sec3() }},
		{"fig03", "Figure 3: per-benchmark I-cache miss rate (32KB, 4B lines)", func(w *Workloads) fmt.Stringer { return Fig03(w) }},
		{"fig04", "Figure 4: average I-cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig04(w) }},
		{"fig05", "Figure 5: miss-rate reduction vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig05(w) }},
		{"fig07", "Figure 7: L1 miss rate vs relative L2 size per hit-last strategy", func(w *Workloads) fmt.Stringer { return Fig07(w) }},
		{"fig08", "Figure 8: global L2 miss rate vs L2 size per strategy", func(w *Workloads) fmt.Stringer { return Fig08(w) }},
		{"fig09", "Figure 9: L2 miss-rate improvement vs L2 size", func(w *Workloads) fmt.Stringer { return Fig09(w) }},
		{"fig11", "Figure 11: I-cache miss rate vs line size (32KB)", func(w *Workloads) fmt.Stringer { return Fig11(w) }},
		{"fig12", "Figure 12: improvement vs cache size (16B lines)", func(w *Workloads) fmt.Stringer { return Fig12(w) }},
		{"fig13", "Figure 13: dynamic exclusion vs doubled capacity (16B lines)", func(w *Workloads) fmt.Stringer { return Fig13(w) }},
		{"fig14", "Figure 14: data-cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig14(w) }},
		{"fig15", "Figure 15: combined I+D cache miss rate vs cache size (4B lines)", func(w *Workloads) fmt.Stringer { return Fig15(w) }},
		{"ablations", "Ablations: sticky depth, hashed bits, cold start, victim, last-line", func(w *Workloads) fmt.Stringer { return Ablations(w) }},
		{"assoc", "Extra: direct-mapped vs set-associative vs dynamic exclusion", func(w *Workloads) fmt.Stringer { return Assoc(w) }},
		{"amat", "Extra: average memory access time (the §1 hit-time argument)", func(w *Workloads) fmt.Stringer { return Amat(w) }},
		{"static", "Extra: static (profile-guided) exclusion vs dynamic exclusion", func(w *Workloads) fmt.Stringer { return Static(w) }},
		{"writes", "Extra: data-cache write traffic under exclusion", func(w *Workloads) fmt.Stringer { return Writes(w) }},
		{"sensitivity", "Extra: seed sensitivity of the headline reduction curve", func(w *Workloads) fmt.Stringer { return Sensitivity(w) }},
	}
}

// Lookup finds a runner by id.
func Lookup(id string) (Runner, bool) {
	for _, r := range Registry() {
		if r.ID == id {
			return r, true
		}
	}
	return Runner{}, false
}

// IDs returns all experiment ids, sorted.
func IDs() []string {
	var ids []string
	for _, r := range Registry() {
		ids = append(ids, r.ID)
	}
	sort.Strings(ids)
	return ids
}

// standardSizes is the cache-size axis of Figures 4, 5, 12, 14, 15.
func standardSizes() []uint64 {
	return []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10}
}

// kbLabel formats a size axis value.
func kbLabel(x float64) string { return fmt.Sprintf("%gK", x) }
