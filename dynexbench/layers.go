package main

import (
	"sync"
	"time"
)

// layerStats accumulates the per-layer numbers of a traced run's traced
// passes. Totals are divided by the pass count when reported, so every
// figure is per pass; latency samples are pooled.
type layerStats struct {
	mu sync.Mutex

	passes int

	synthS      float64
	streams     int
	streamRefs  int
	synthPasses int // divisor for the spec totals when a probe measured them; 0 = passes

	decodeRefsPerS float64

	buildMS, partitionMS, csvMS float64
	cells, units                int
	cellRefs                    uint64

	engineRunS, engineBusyS float64
	workers                 int
	queueWaitMS             []float64
	queueWaitQ              *[2]float64 // p50, p90 when read from a histogram instead
	attempts, retries       int

	colBusyS    float64
	colCellRefs float64

	appendMS  []float64
	ckptBusyS float64
	records   int
	ckptBytes int64

	admitMS       []float64
	serveQueueS   float64
	rejected      int
	resultBytes   int64
	repeatStreams float64

	figS map[string]float64

	kernel map[string]float64

	accesses, misses uint64
	deReductionPct   float64
	outputDigest     uint32

	self map[string]float64

	tracedWall, untracedWall []float64
}

func newLayerStats() *layerStats {
	return &layerStats{figS: map[string]float64{}, kernel: map[string]float64{}, self: map[string]float64{}}
}

func (ls *layerStats) addSynth(d time.Duration, refs int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.synthS += d.Seconds()
	ls.streams++
	ls.streamRefs += refs
}

func (ls *layerStats) addColumn(d time.Duration, cellRefs int) {
	ls.mu.Lock()
	defer ls.mu.Unlock()
	ls.colBusyS += d.Seconds()
	ls.colCellRefs += float64(cellRefs)
}

// selfLayers maps span names to the self-time metric they feed.
var selfLayers = map[string]string{
	"spec.synth":        "self.spec_s",
	"cell.stream":       "self.stream_wait_s",
	"engine.unit":       "self.kernel_s",
	"engine.run":        "self.engine_s",
	"checkpoint.append": "self.checkpoint_s",
	"checkpoint.close":  "self.checkpoint_s",
	"multisim.column":   "self.multisim_s",
	"grid.partition":    "self.grid_s",
	"grid.csv":          "self.grid_s",
	"serve.post":        "self.serve_admit_s",
	"serve.results":     "self.serve_results_s",
	"experiments.fig03": "self.experiments_s",
	"experiments.fig04": "self.experiments_s",
	"experiments.fig05": "self.experiments_s",
}

// addSelf folds a tracer's per-span-name self times into the stats.
func (ls *layerStats) addSelf(tr *tracer) {
	for name, s := range tr.selfSeconds() {
		if m, ok := selfLayers[name]; ok {
			ls.self[m] += s
		}
	}
}

// kernelFamilies are the column-eligible families the kernel probe
// prices; opt is probed on its own.
var kernelFamilies = []string{"dm", "de", "lru4", "fifo2"}

// modelMetrics are the simulated outcome of the workload's first pass:
// exact counts, the same in traced and untraced runs of one seed.
func (ls *layerStats) modelMetrics() map[string]metric {
	return map[string]metric{
		"model.accesses":         {float64(ls.accesses), "refs"},
		"model.misses":           {float64(ls.misses), "count"},
		"model.de_reduction_pct": {ls.deReductionPct, "%"},
		"model.output_digest":    {float64(ls.outputDigest), "hash"},
	}
}

// metrics renders every per-layer metric. Layers a workload never
// calls report 0.
func (ls *layerStats) metrics() map[string]metric {
	p := float64(max(ls.passes, 1))
	sp := p
	if ls.synthPasses > 0 {
		sp = float64(ls.synthPasses)
	}
	q50, q90 := quantile(ls.queueWaitMS, 0.5), quantile(ls.queueWaitMS, 0.9)
	if ls.queueWaitQ != nil {
		q50, q90 = ls.queueWaitQ[0], ls.queueWaitQ[1]
	}
	frac := func(num, den float64) float64 {
		if den <= 0 {
			return 0
		}
		return num / den
	}
	idle := 0.0
	if ls.engineRunS > 0 && ls.workers > 0 {
		idle = 1 - ls.engineBusyS/(float64(ls.workers)*ls.engineRunS)
	}
	m := map[string]metric{
		"spec.synth_s":             {ls.synthS / sp, "s"},
		"spec.streams":             {float64(ls.streams) / sp, "count"},
		"spec.stream_refs":         {float64(ls.streamRefs) / sp, "refs"},
		"spec.stream_bytes":        {float64(ls.streamRefs) * refBytes / sp, "bytes"},
		"trace.decode_refs_per_s":  {ls.decodeRefsPerS, "refs/s"},
		"grid.build_ms":            {ls.buildMS / p, "ms"},
		"grid.partition_ms":        {ls.partitionMS / p, "ms"},
		"grid.csv_ms":              {ls.csvMS / p, "ms"},
		"grid.cells":               {float64(ls.cells) / p, "count"},
		"grid.units":               {float64(ls.units) / p, "count"},
		"grid.cell_refs":           {float64(ls.cellRefs) / p, "refs"},
		"engine.run_s":             {ls.engineRunS / p, "s"},
		"engine.busy_s":            {ls.engineBusyS / p, "s"},
		"engine.idle_frac":         {idle, "ratio"},
		"engine.queue_wait_ms_p50": {q50, "ms"},
		"engine.queue_wait_ms_p90": {q90, "ms"},
		"engine.attempts":          {float64(ls.attempts) / p, "count"},
		"engine.retries":           {float64(ls.retries) / p, "count"},
		"multisim.busy_s":          {ls.colBusyS / p, "s"},
		"multisim.cell_refs_per_s": {frac(ls.colCellRefs, ls.colBusyS), "refs/s"},
		"checkpoint.append_ms_p50": {quantile(ls.appendMS, 0.5), "ms"},
		"checkpoint.append_ms_p90": {quantile(ls.appendMS, 0.9), "ms"},
		"checkpoint.busy_s":        {ls.ckptBusyS / p, "s"},
		"checkpoint.records":       {float64(ls.records) / p, "count"},
		"checkpoint.bytes":         {float64(ls.ckptBytes) / p, "bytes"},
		"serve.admit_ms_p50":       {quantile(ls.admitMS, 0.5), "ms"},
		"serve.queue_wait_s_p50":   {ls.serveQueueS, "s"},
		"serve.rejected":           {float64(ls.rejected), "count"},
		"serve.result_bytes":       {float64(ls.resultBytes) / p, "bytes"},
		"serve.repeat_stream_frac": {ls.repeatStreams, "ratio"},
		"experiments.fig03_s":      {ls.figS["fig03"] / p, "s"},
		"experiments.fig04_s":      {ls.figS["fig04"] / p, "s"},
		"experiments.fig05_s":      {ls.figS["fig05"] / p, "s"},
		"trace_overhead_frac":      {median(ls.tracedWall)/median(ls.untracedWall) - 1, "ratio"},
	}
	for name, v := range ls.modelMetrics() {
		m[name] = v
	}
	for _, fam := range kernelFamilies {
		for _, k := range []string{"batch_ns_per_ref", "col1_ns_per_ref", "colN_ns_per_cellref"} {
			name := "kernel." + fam + "." + k
			m[name] = metric{ls.kernel[name], "ns"}
		}
	}
	m["kernel.opt.ns_per_ref"] = metric{ls.kernel["kernel.opt.ns_per_ref"], "ns"}
	for _, name := range selfLayers {
		m[name] = metric{ls.self[name] / p, "s"}
	}
	return m
}
