package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cache"
	"repro/internal/experiments"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/trace"
)

// figureIDs are the paper-figures workload's runners, run in order over
// one shared workload cache.
var figureIDs = []string{"fig03", "fig04", "fig05"}

func figureRefs(smoke bool) int {
	if smoke {
		return 20_000
	}
	return 500_000
}

// figurePass is one timed run of the three figure runners.
type figurePass struct {
	wall      time.Duration
	latencyMS []float64 // per figure: pass start to its result
	outs      map[string]fmt.Stringer
	digest    [32]byte
	err       error
}

func runFigurePass(w *experiments.Workloads, tr *tracer, probe *engineProbe, ls *layerStats) (out figurePass) {
	out.outs = map[string]fmt.Stringer{}
	start := time.Now()
	passSpan := tr.begin("pass", 0, "")
	h := sha256.New()
	defer func() {
		// A runner panics on cancellation or an engine error; report it
		// as a failed pass instead of crashing the harness.
		if v := recover(); v != nil {
			out.err = fmt.Errorf("runner panicked: %v", v)
		}
	}()
	for _, id := range figureIDs {
		r, ok := experiments.Lookup(id)
		if !ok {
			out.err = fmt.Errorf("no runner %q", id)
			return out
		}
		sp := tr.begin("experiments."+id, passSpan, id)
		probe.setParent(sp)
		t := time.Now()
		res := r.Run(w)
		d := time.Since(t)
		tr.end(sp)
		if ls != nil {
			ls.figS[id] += d.Seconds()
		}
		out.latencyMS = append(out.latencyMS, ms(time.Since(start)))
		out.outs[id] = res
		fmt.Fprintf(h, "%s\n%s\n", id, res)
	}
	out.wall = time.Since(start)
	tr.end(passSpan)
	copy(out.digest[:], h.Sum(nil))
	return out
}

// gateFigures recomputes a seeded sample of figure points with the
// scalar reference: three Figure 3 benchmarks (dm, de, opt at the
// figure's geometry) and one Figure 4 size (the dm and de suite
// averages). Figure 5 must equal its derivation from Figure 4.
func gateFigures(w *experiments.Workloads, outs map[string]fmt.Stringer, rng *rand.Rand, o *outcome) {
	dmSpec := policy.MustParse("dm")
	deSpec := policy.MustParse("de").WithLastLine(false)
	optSpec := policy.MustParse("opt").WithLastLine(false)
	rate := func(sp policy.Spec, refs []trace.Ref, geom cache.Geometry) float64 {
		o.attempted++
		cell := sp.Cell()
		cell.Geometry = geom
		cell.Stream = func() ([]trace.Ref, error) { return refs, nil }
		st, _, err := scalarReference(sp.String(), cell)
		if err != nil {
			o.fail("reference %s: %v", sp, err)
		}
		return st.MissRate()
	}
	check := func(what string, got, want float64) {
		if got != want {
			o.fail("%s: figure %v, reference %v", what, got, want)
		}
	}

	f3, ok := outs["fig03"].(experiments.Fig03Result)
	if !ok {
		o.fail("fig03 returned %T", outs["fig03"])
		return
	}
	names := w.Names()
	for k := 0; k < 3; k++ {
		i := rng.Intn(len(names))
		refs := w.Instr(names[i])
		row := f3.Rows[i]
		check("fig03 "+names[i]+" dm", row.DM, rate(dmSpec, refs, experiments.Fig03Geom))
		check("fig03 "+names[i]+" de", row.DE, rate(deSpec, refs, experiments.Fig03Geom))
		check("fig03 "+names[i]+" opt", row.OP, rate(optSpec, refs, experiments.Fig03Geom))
	}

	f4, ok := outs["fig04"].(experiments.Fig04Result)
	if !ok {
		o.fail("fig04 returned %T", outs["fig04"])
		return
	}
	si := rng.Intn(len(f4.DM.Points))
	geom := cache.DM(uint64(f4.DM.Points[si].X*1024), 4)
	var dms, des []float64
	for _, name := range names {
		refs := w.Instr(name)
		dms = append(dms, rate(dmSpec, refs, geom))
		des = append(des, rate(deSpec, refs, geom))
	}
	check(fmt.Sprintf("fig04 %v dm", geom), f4.DM.Points[si].Y, 100*metrics.Mean(dms))
	check(fmt.Sprintf("fig04 %v de", geom), f4.DE.Points[si].Y, 100*metrics.Mean(des))

	o.attempted++
	if got, want := fmt.Sprint(outs["fig05"]), experiments.Fig05FromFig04(f4).String(); got != want {
		o.fail("fig05 disagrees with its derivation from fig04")
	}
}

// runFigures runs the fig03–fig05 runners over a fresh seed-shifted
// workload cache per pass (so each pass pays synthesis, as a
// dynex-experiments invocation does). Every pass must print the same
// figures; after the last pass the peak RSS is read and the first
// pass's figures are checked against the scalar reference on a fresh
// cache.
func runFigures(cfg config) (*outcome, error) {
	o := newOutcome()
	refs := figureRefs(cfg.smoke)
	var tr *tracer
	ls := newLayerStats()
	if cfg.traced {
		tr = newTracer()
	}
	var setups, walls, lat, first []float64
	var firstDigest [32]byte
	var firstOuts map[string]fmt.Stringer
	b := newBudget(cfg)
	for pass := 0; ; pass++ {
		more, traced := b.next()
		if !more {
			break
		}
		runtime.GC() // free the previous pass's streams before this one starts
		var probe *engineProbe
		cfgX := experiments.Config{Refs: refs, SeedOffset: cfg.seed}
		if traced {
			probe = newEngineProbe(tr)
			cfgX.Collector = probe
		}
		t := time.Now()
		w := experiments.NewWorkloads(cfgX)
		setups = append(setups, time.Since(t).Seconds())

		ptr, pls := (*tracer)(nil), (*layerStats)(nil)
		if traced {
			ptr, pls = tr, ls
		}
		res := runFigurePass(w, ptr, probe, pls)
		o.attempted += len(figureIDs)
		if res.err != nil {
			o.fail("pass %d: %v", pass, res.err)
			continue
		}
		if traced {
			ls.passes++
			ls.tracedWall = append(ls.tracedWall, res.wall.Seconds())
			ls.engineBusyS += probe.busy.Seconds()
			ls.queueWaitMS = append(ls.queueWaitMS, probe.queueWait...)
			ls.attempts += probe.attempts
			ls.retries += probe.attempts - probe.cells
		} else {
			walls = append(walls, res.wall.Seconds())
			lat = append(lat, res.latencyMS...)
			first = append(first, res.latencyMS[0])
			if cfg.traced {
				ls.untracedWall = append(ls.untracedWall, res.wall.Seconds())
			}
		}
		if firstOuts == nil {
			firstDigest, firstOuts = res.digest, res.outs
			f3 := res.outs["fig03"].(experiments.Fig03Result)
			ls.deReductionPct = metrics.Reduction(f3.AvgDM, f3.AvgDE)
			ls.outputDigest = digest32(res.digest)
		} else {
			o.attempted++
			if res.digest != firstDigest {
				o.fail("pass %d (traced=%v): figure output differs from the first pass", pass, traced)
			}
		}
	}
	o.rssMiB = peakRSSMiB()
	o.finish(setups, walls, lat, first, ls.modelMetrics())
	o.notes = append(o.notes, "job = one figure runner (fig03, fig04, fig05), latency from pass start to its result; first_cell = fig03")
	if firstOuts == nil {
		return o, nil
	}
	rng := rand.New(rand.NewSource(cfg.seed))
	ref := experiments.NewWorkloads(experiments.Config{Refs: refs, SeedOffset: cfg.seed})
	gateFigures(ref, firstOuts, rng, o)
	if cfg.traced {
		ls.engineRunS = sum(ls.tracedWall)
		ls.workers = runtime.GOMAXPROCS(0)
		synthProbe(cfg, refs, ls)
		ls.addSelf(tr)
		if err := probeLayers(ref.Instr(ref.Names()[rng.Intn(len(ref.Names()))]), nil, ls, o); err != nil {
			return nil, err
		}
		o.layer = ls.metrics()
		if err := tr.write(filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-paper-figures-%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// synthProbe times what the figures' workload cache does on first use:
// synthesizing each suite benchmark's instruction stream once. The
// figure runners synthesize inside the engine, out of the harness's
// reach, so the traced run measures the same calls on a fresh cache.
func synthProbe(cfg config, refs int, ls *layerStats) {
	w := experiments.NewWorkloads(experiments.Config{Refs: refs, SeedOffset: cfg.seed})
	for _, name := range w.Names() {
		t := time.Now()
		n := len(w.Instr(name))
		ls.addSynth(time.Since(t), n)
	}
	ls.synthPasses = 1
}
