package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/trace"
)

// gridShape is a batch sweep workload: the grid dynex-sweep would run
// over seeded suite streams.
type gridShape struct {
	name          string
	kind          string
	refs          int
	benches       []string // nil = the whole suite
	sizes, lines  []uint64
	policies      []string
	journal       bool
	gatePerPolicy int // scalar reference checks per policy
}

// columnSweep: one gcc instruction stream, 120 cells in 12 power-of-two
// size columns, journaled with an fsync per record.
func columnSweep(smoke bool) gridShape {
	s := gridShape{
		name: "column-sweep", kind: "instr", refs: 4_000_000, benches: []string{"gcc"},
		lines: []uint64{4, 16, 64}, policies: []string{"dm", "de", "lru4", "fifo2"},
		journal: true, gatePerPolicy: 2,
	}
	for size := uint64(1 << 10); size <= 512<<10; size <<= 1 {
		s.sizes = append(s.sizes, size)
	}
	if smoke {
		s.refs = 30_000
	}
	return s
}

// suitePercell: all ten suite models, mixed streams, one geometry and
// eight policies — 80 cells that no column can group.
func suitePercell(smoke bool) gridShape {
	s := gridShape{
		name: "suite-percell", kind: "mixed", refs: 2_000_000,
		sizes: []uint64{16 << 10}, lines: []uint64{16},
		policies:      []string{"dm", "de", "de-hashed", "lru4", "fifo2", "opt", "victim", "stream"},
		gatePerPolicy: 1,
	}
	if smoke {
		s.refs = 20_000
	}
	return s
}

// seededSuite builds the suite's program models with every generation
// seed shifted by seed.
func seededSuite(seed int64) ([]spec.Benchmark, error) {
	var out []spec.Benchmark
	for _, p := range spec.SuiteParams() {
		p.Seed += seed
		b, err := spec.Build(p)
		if err != nil {
			return nil, err
		}
		out = append(out, b)
	}
	return out, nil
}

func synthesize(b spec.Benchmark, kind string, n int) []trace.Ref {
	switch kind {
	case "instr":
		return b.Instr(n)
	case "data":
		return b.Data(n)
	default:
		return b.Mixed(n)
	}
}

// gridPass is one prepared sweep: a plan over fresh sources (so every
// pass pays synthesis again, as every dynex-sweep invocation does) and
// an empty journal.
type gridPass struct {
	plan    grid.Plan
	journal *checkpoint.Journal
	path    string
}

func setupGrid(cfg config, sh gridShape, n int, tr *tracer, ls *layerStats) (*gridPass, error) {
	suite, err := seededSuite(cfg.seed)
	if err != nil {
		return nil, err
	}
	var sources []grid.Source
	for _, b := range suite {
		if sh.benches != nil && !slices.Contains(sh.benches, b.Name) {
			continue
		}
		b := b
		sources = append(sources, grid.NewSource(b.Name, func() ([]trace.Ref, error) {
			id := tr.begin("spec.synth", 0, b.Name)
			start := time.Now()
			refs := synthesize(b, sh.kind, sh.refs)
			tr.end(id)
			if ls != nil {
				ls.addSynth(time.Since(start), len(refs))
			}
			return refs, nil
		}))
	}
	start := time.Now()
	plan, err := grid.Spec{
		Sources: sources, Kind: sh.kind, Refs: sh.refs,
		Sizes: sh.sizes, Lines: sh.lines, Policies: sh.policies,
	}.Build()
	if err != nil {
		return nil, err
	}
	if ls != nil {
		ls.buildMS += ms(time.Since(start))
	}
	p := &gridPass{plan: plan}
	if sh.journal {
		p.path = filepath.Join(cfg.tmp, fmt.Sprintf("%s-%d.jsonl", sh.name, n))
		if p.journal, err = checkpoint.Open(p.path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// passResult is what one timed pass produced.
type passResult struct {
	wall      time.Duration
	latencyMS []float64 // per cell: pass start to the cell's result
	firstMS   float64
	results   []engine.Result
	digest    [32]byte
	failed    int
	notes     []string
}

// runGridPass times one sweep the way dynex-sweep runs it: partition
// into column units, run, journal each result as it lands, render the
// CSV, close the journal.
func runGridPass(p *gridPass, tr *tracer, ls *layerStats) passResult {
	var out passResult
	start := time.Now()
	passSpan := tr.begin("pass", 0, "")
	n := len(p.plan.Cells)
	pending := make([]int, n)
	for i := range pending {
		pending[i] = i
	}

	partStart := time.Now()
	sp := tr.begin("grid.partition", passSpan, "")
	groups := p.plan.Partition(pending, nil)
	tr.end(sp)
	partDur := time.Since(partStart)

	cells := p.plan.Cells
	var probe *engineProbe
	if tr != nil {
		probe = newEngineProbe(tr)
		cells = append([]engine.Cell(nil), cells...)
		for i := range cells {
			i, stream := i, cells[i].Stream
			cells[i].Stream = func() ([]trace.Ref, error) {
				id := tr.begin("cell.stream", probe.spanOf(i), cells[i].Label)
				defer tr.end(id)
				return stream()
			}
		}
		for gi := range groups {
			g := groups[gi]
			newCol := g.NewColumn
			groups[gi].NewColumn = func() (engine.Column, error) {
				c, err := newCol()
				if err != nil {
					return nil, err
				}
				return &timedColumn{Column: c, members: len(g.Indices), ls: ls,
					tr: tr, span: tr.begin("multisim.column", probe.spanOf(g.Indices[0]), cells[g.Indices[0]].Label)}, nil
			}
		}
	}

	var runSpan int64
	var ckptBusy time.Duration
	out.firstMS = -1
	out.latencyMS = make([]float64, 0, n)
	onResult := func(i int, r engine.Result) {
		at := ms(time.Since(start))
		if out.firstMS < 0 {
			out.firstMS = at
		}
		out.latencyMS = append(out.latencyMS, at)
		if r.Err != nil || p.journal == nil {
			return
		}
		id := tr.begin("checkpoint.append", runSpan, r.Label)
		t := time.Now()
		err := p.journal.Append(checkpoint.Record{Fingerprint: p.plan.FPs[i], Label: r.Label,
			Stats: r.Stats, Attempts: r.Attempts, WallNS: int64(r.Wall)})
		d := time.Since(t)
		tr.end(id)
		ckptBusy += d
		if ls != nil {
			ls.appendMS = append(ls.appendMS, ms(d))
		}
		if err != nil {
			out.failed++
			out.notes = append(out.notes, "journal: "+err.Error())
		}
	}
	runStart := time.Now()
	runSpan = tr.begin("engine.run", passSpan, "")
	opts := engine.Options{OnResult: onResult}
	if probe != nil {
		probe.setParent(runSpan)
		opts.Collector = probe
	}
	results, err := engine.RunGrouped(context.Background(), cells, groups, opts)
	tr.end(runSpan)
	runDur := time.Since(runStart)
	if err != nil {
		out.failed += n
		out.notes = append(out.notes, "engine: "+err.Error())
		return out
	}

	csvStart := time.Now()
	sp = tr.begin("grid.csv", passSpan, "")
	var buf bytes.Buffer
	failedRows, err := p.plan.WriteCSV(&buf, results)
	tr.end(sp)
	csvDur := time.Since(csvStart)
	if err != nil {
		out.failed++
		out.notes = append(out.notes, "csv: "+err.Error())
	}
	for _, f := range failedRows {
		out.failed++
		out.notes = append(out.notes, fmt.Sprintf("%s: %v", f.Label, f.Err))
	}
	if p.journal != nil {
		sp = tr.begin("checkpoint.close", passSpan, "")
		t := time.Now()
		if err := p.journal.Close(); err != nil {
			out.failed++
			out.notes = append(out.notes, "journal close: "+err.Error())
		}
		ckptBusy += time.Since(t)
		tr.end(sp)
	}
	out.wall = time.Since(start)
	tr.end(passSpan)
	out.results = results
	out.digest = sha256.Sum256(buf.Bytes())

	if ls != nil {
		ls.partitionMS += ms(partDur)
		ls.csvMS += ms(csvDur)
		ls.cells += n
		grouped := 0
		for _, g := range groups {
			grouped += len(g.Indices)
		}
		units := len(groups) + n - grouped
		ls.units += units
		for _, r := range results {
			ls.cellRefs += r.Stats.Accesses
		}
		ls.engineRunS += runDur.Seconds()
		ls.engineBusyS += probe.busy.Seconds()
		ls.workers = min(runtime.GOMAXPROCS(0), units)
		ls.queueWaitMS = append(ls.queueWaitMS, probe.queueWait...)
		ls.attempts += probe.attempts
		ls.retries += probe.attempts - probe.cells
		ls.ckptBusyS += ckptBusy.Seconds()
		if p.journal != nil {
			ls.records += n - len(failedRows)
			if st, err := os.Stat(p.path); err == nil {
				ls.ckptBytes += st.Size()
			}
		}
	}
	return out
}

// timedColumn times the column kernel's passes without changing them:
// the engine still drives the real kernel through Batch.
type timedColumn struct {
	engine.Column
	members int
	ls      *layerStats
	tr      *tracer
	span    int64
}

func (c *timedColumn) Batch(refs []trace.Ref) {
	t := time.Now()
	c.Column.Batch(refs)
	c.ls.addColumn(time.Since(t), len(refs)*c.members)
}

func (c *timedColumn) Outcomes() []engine.ColumnOutcome {
	c.tr.end(c.span)
	return c.Column.Outcomes()
}

// modelCounts totals the simulated outcome of a pass: accesses and
// misses over all cells, and dynamic exclusion's miss reduction against
// direct-mapped over the cells that share a source and geometry.
func modelCounts(plan grid.Plan, results []engine.Result) (accesses, misses uint64, dePct float64) {
	var dm, de uint64
	for i, r := range results {
		accesses += r.Stats.Accesses
		misses += r.Stats.Misses
		switch plan.Spec.Policies[i%len(plan.Spec.Policies)] {
		case "dm":
			dm += r.Stats.Misses
		case "de":
			de += r.Stats.Misses
		}
	}
	if dm > 0 {
		dePct = 100 * (1 - float64(de)/float64(dm))
	}
	return accesses, misses, dePct
}

func digest32(d [32]byte) uint32 { return binary.BigEndian.Uint32(d[:4]) }

// scalarReference recomputes one cell outside the timed window: Policy
// cells through policy.Spec.Build under cache.ScalarOnly, one Access per
// reference; opt through its Direct path.
func scalarReference(pol string, cell engine.Cell) (cache.Stats, []cache.Counter, error) {
	sp, err := policy.Parse(pol)
	if err != nil {
		return cache.Stats{}, nil, err
	}
	refs, err := cell.Stream()
	if err != nil {
		return cache.Stats{}, nil, err
	}
	if c := sp.Cell(); c.Direct != nil {
		st, err := c.Direct(refs, cell.Geometry)
		return st, nil, err
	}
	sim, err := sp.Build(cell.Geometry)
	if err != nil {
		return cache.Stats{}, nil, err
	}
	s := cache.ScalarOnly(sim)
	cache.RunRefs(s, refs)
	return s.Stats(), cache.SnapshotExtras(s), nil
}

func countersEqual(a, b []cache.Counter) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gateGrid checks a seeded sample of a pass's cells — gatePerPolicy per
// policy — against the scalar reference. It returns the checks made.
func gateGrid(sh gridShape, plan grid.Plan, results []engine.Result, rng *rand.Rand, o *outcome) int {
	nP := len(sh.policies)
	rows := len(plan.Cells) / nP
	checks := 0
	for pi, pol := range sh.policies {
		for k := 0; k < sh.gatePerPolicy; k++ {
			i := rng.Intn(rows)*nP + pi
			checks++
			st, extras, err := scalarReference(pol, plan.Cells[i])
			switch {
			case err != nil:
				o.fail("reference %s: %v", plan.Cells[i].Label, err)
			case st != results[i].Stats || !countersEqual(extras, results[i].Extras):
				o.fail("reference %s: stats %+v extras %v, run gave %+v extras %v",
					plan.Cells[i].Label, st, extras, results[i].Stats, results[i].Extras)
			}
		}
	}
	return checks
}

// runGrid runs a sweep workload for the budget: each pass is set up
// (timed as setup_s) and then timed end to end, and every pass must
// render the same CSV bytes. After the last pass the process's peak
// RSS is read, and then the first pass's results are checked against
// the scalar reference on freshly synthesized streams — so neither the
// reference nor a pass's leftover streams count toward the workload's
// memory.
func runGrid(cfg config, sh gridShape) (*outcome, error) {
	o := newOutcome()
	var tr *tracer
	ls := newLayerStats()
	if cfg.traced {
		tr = newTracer()
	}
	var setups, walls, lat, first []float64
	var firstDigest [32]byte
	var firstResults []engine.Result
	b := newBudget(cfg)
	for pass := 0; ; pass++ {
		more, traced := b.next()
		if !more {
			break
		}
		runtime.GC() // free the previous pass's streams before this one starts
		ptr, pls := (*tracer)(nil), (*layerStats)(nil)
		if traced {
			ptr, pls = tr, ls
		}
		t := time.Now()
		p, err := setupGrid(cfg, sh, pass, ptr, pls)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		res := runGridPass(p, ptr, pls)
		o.attempted += len(p.plan.Cells)
		o.failed += res.failed
		o.notes = append(o.notes, res.notes...)
		if res.results == nil {
			continue
		}
		if traced {
			ls.passes++
			ls.tracedWall = append(ls.tracedWall, res.wall.Seconds())
		} else {
			walls = append(walls, res.wall.Seconds())
			lat = append(lat, res.latencyMS...)
			first = append(first, res.firstMS)
			if cfg.traced {
				ls.untracedWall = append(ls.untracedWall, res.wall.Seconds())
			}
		}
		if firstResults == nil {
			firstDigest, firstResults = res.digest, res.results
			ls.accesses, ls.misses, ls.deReductionPct = modelCounts(p.plan, res.results)
			ls.outputDigest = digest32(res.digest)
		} else {
			o.attempted++
			if res.digest != firstDigest {
				o.fail("pass %d (traced=%v): CSV differs from the first pass", pass, traced)
			}
		}
	}
	o.rssMiB = peakRSSMiB()
	o.finish(setups, walls, lat, first, ls.modelMetrics())
	o.notes = append(o.notes, fmt.Sprintf("job = one grid cell (%d per pass), latency from pass start to its result; %s",
		len(lat)/max(len(walls), 1), strings.Join(sh.policies, ",")))
	if firstResults == nil {
		return o, nil
	}
	unjournaled := sh
	unjournaled.journal = false
	ref, err := setupGrid(cfg, unjournaled, 0, nil, nil)
	if err != nil {
		return nil, err
	}
	o.attempted += gateGrid(sh, ref.plan, firstResults, rand.New(rand.NewSource(cfg.seed)), o)
	if cfg.traced {
		probeStream, err := ref.plan.Cells[0].Stream()
		if err != nil {
			return nil, err
		}
		tr.adoptOrphans("spec.synth", "cell.stream")
		ls.addSelf(tr)
		if err := probeLayers(probeStream, nil, ls, o); err != nil {
			return nil, err
		}
		o.layer = ls.metrics()
		if err := tr.write(filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-%s-%d.jsonl", sh.name, cfg.seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}
