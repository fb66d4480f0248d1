// Command dynexbench is the repository's end-to-end benchmark. It runs
// one named workload in its own process, times it from outside by
// calling the same public functions the CLIs call, checks the outputs
// against a reference, and prints one JSON result line:
//
//	dynexbench --workload column-sweep --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the result carries the end-to-end metrics of
// BENCHMARK.json; with --trace 1 the run alternates untraced and traced
// passes and the result carries the per-layer metrics instead. The
// line before the result is a report with provenance (CPU, Go version,
// commit, seed) and the sample count behind every timing. See
// README.md for the workloads and the metric definitions.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// Seeds recorded with the benchmark: gains are claimed at the default
// seed and re-checked at the held-out one.
const (
	defaultSeed = 1
	heldOutSeed = 7
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	smoke    bool   // tiny inputs, for the harness's own tests
	root     string // checkout root: the only tree the run touches
	tmp      string // per-run scratch directory under root
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is what a workload reports. attempted counts operations
// (cells, jobs, HTTP requests, reference checks); failed counts those
// that errored or disagreed with the reference.
type outcome struct {
	attempted, failed int
	e2e               map[string]metric
	layer             map[string]metric
	samples           map[string]int
	walls             []float64 // untraced pass walls, seconds
	rssMiB            float64   // peak RSS after the timed passes, before any reference check
	model             map[string]metric
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layer: map[string]metric{}, samples: map[string]int{}}
}

// finish renders the end-to-end timings of the untraced passes: per
// pass set-up and wall seconds, and per job latency and time to first
// result. The raw pass walls go to the report with every sample count,
// and so do the model counts, so an untraced and a traced run of one
// seed can be compared.
func (o *outcome) finish(setups, walls, jobMS, firstMS []float64, model map[string]metric) {
	o.model = model
	o.samples["setup_s"] = len(setups)
	o.samples["wall_s"] = len(walls)
	o.samples["job_ms"] = len(jobMS)
	o.samples["first_cell_ms"] = len(firstMS)
	o.walls = walls
	o.e2e["setup_s"] = metric{median(setups), "s"}
	o.e2e["wall_s"] = metric{median(walls), "s"}
	o.e2e["jobs_per_s"] = metric{float64(len(jobMS)) / sum(walls), "1/s"}
	o.e2e["job_ms_p50"] = metric{quantile(jobMS, 0.5), "ms"}
	o.e2e["job_ms_p90"] = metric{quantile(jobMS, 0.9), "ms"}
	o.e2e["first_cell_ms_p50"] = metric{median(firstMS), "ms"}
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(cfg config) (*outcome, error){
	"column-sweep":  func(cfg config) (*outcome, error) { return runGrid(cfg, columnSweep(cfg.smoke)) },
	"suite-percell": func(cfg config) (*outcome, error) { return runGrid(cfg, suitePercell(cfg.smoke)) },
	"serve-jobs":    runServe,
	"paper-figures": runFigures,
}

func main() {
	if err := benchMain(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "dynexbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("dynexbench", flag.ContinueOnError)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: column-sweep, suite-percell, serve-jobs, paper-figures")
	fs.Int64Var(&cfg.seed, "seed", defaultSeed, "input seed")
	fs.Float64Var(&cfg.seconds, "seconds", 15, "measured seconds")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run printing per-layer metrics")
	fs.BoolVar(&cfg.smoke, "smoke", false, "tiny inputs (self-tests)")
	fs.StringVar(&cfg.root, "root", ".", "checkout root; scratch files go under <root>/.bench_build")
	if err := fs.Parse(args); err != nil {
		return err
	}
	run, ok := workloads[cfg.workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", cfg.workload)
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace must be 0 or 1")
	}
	cfg.traced = traceFlag == 1
	tmp, err := os.MkdirTemp(filepath.Join(cfg.root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	cfg.tmp = tmp

	o, err := run(cfg)
	if err != nil {
		return err
	}
	if o.attempted < 1 {
		return errors.New("workload attempted nothing")
	}
	o.e2e["peak_rss_mb"] = metric{o.rssMiB, "MiB"}
	o.e2e["failed_frac"] = metric{float64(o.failed) / float64(o.attempted), "ratio"}

	// The report line: every metric this run measured plus provenance.
	report := map[string]any{
		"provenance":     provenance(cfg),
		"samples":        o.samples,
		"wall_s_samples": o.walls,
		"end_to_end":     o.e2e,
		"attempted":      o.attempted,
		"failed":         o.failed,
		"notes":          o.notes,
		"refs_kinds":     refsKinds,
		"model":          o.model,
	}
	if cfg.traced {
		report["per_layer"] = o.layer
	}
	if err := json.NewEncoder(stdout).Encode(map[string]any{"report": report}); err != nil {
		return err
	}
	// The result line: exactly the metric set BENCHMARK.json declares
	// for this mode.
	names, err := declared(cfg.root, cfg.traced)
	if err != nil {
		return err
	}
	src := o.e2e
	if cfg.traced {
		src = o.layer
	}
	metrics := map[string]metric{}
	for _, n := range names {
		m, ok := src[n]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", cfg.workload, n)
		}
		metrics[n] = m
	}
	return json.NewEncoder(stdout).Encode(map[string]any{
		"correct": o.failed == 0, "attempted": o.attempted, "failed": o.failed, "metrics": metrics,
	})
}

// refsKinds says which reference count each refs metric counts: stream
// refs count each reference of a stream once; cell refs count it once
// per cell that simulates it.
var refsKinds = map[string]string{
	"spec.stream_refs":             "stream refs",
	"trace.decode_refs_per_s":      "stream refs",
	"grid.cell_refs":               "cell refs",
	"multisim.cell_refs_per_s":     "cell refs",
	"model.accesses":               "cell refs",
	"kernel.*.batch_ns_per_ref":    "stream refs (one cell)",
	"kernel.*.col1_ns_per_ref":     "stream refs (one-member column)",
	"kernel.*.colN_ns_per_cellref": "cell refs (ten-member column)",
}

// declared reads the metric names of one mode from BENCHMARK.json.
func declared(root string, traced bool) ([]string, error) {
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var b struct {
		EndToEnd []struct{ Name string } `json:"end_to_end"`
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	list := b.EndToEnd
	if traced {
		list = b.PerLayer
	}
	names := make([]string, len(list))
	for i, m := range list {
		names[i] = m.Name
	}
	return names, nil
}

func provenance(cfg config) map[string]any {
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"default_seed":  defaultSeed,
		"held_out_seed": heldOutSeed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"commit":        commit(cfg.root),
	}
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit resolves HEAD from the checkout's .git directory, if it has
// one; benchmark checkouts are often plain source trees.
func commit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown (not a git checkout)"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if id, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(id))
	}
	return "unknown (" + ref + ")"
}

// budget runs passes until the measured window is spent. In a traced
// run the passes alternate untraced and traced, and at least one of
// each runs.
type budget struct {
	start  time.Time
	limit  time.Duration
	traced bool
	n      int
}

func newBudget(cfg config) *budget {
	return &budget{start: time.Now(), limit: time.Duration(cfg.seconds * float64(time.Second)), traced: cfg.traced}
}

// next reports whether another pass runs, and whether it is traced.
// The run stops at the pass boundary nearest the limit, so a run lasts
// about the budget whatever a pass costs.
func (b *budget) next() (more, traced bool) {
	min := 1
	if b.traced {
		min = 2
	}
	if elapsed := time.Since(b.start); b.n >= min && elapsed+elapsed/time.Duration(2*b.n) >= b.limit {
		return false, false
	}
	traced = b.traced && b.n%2 == 1
	b.n++
	return true, traced
}
