// Command dynex simulates a single cache configuration over a workload
// and prints the resulting statistics — the interactive counterpart of
// the batch experiment driver.
//
// Examples:
//
//	dynex -bench gcc -size 32768 -line 4 -policy de
//	dynex -bench li -kind data -policy victim -refs 2000000
//	dynex -pattern within-loop -policy dm
//	dynex -bench spice -policy de -l2 131072 -strategy assume-miss
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/hierarchy"
	"repro/internal/obs"
	"repro/internal/patterns"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func main() {
	// The same graceful-cancel path as cmd/dynex-sweep: interrupt or
	// SIGTERM cancels the context, the simulation stops at the next
	// chunk boundary, and the process exits with a clean error instead
	// of dying mid-write.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "dynex:", err)
		os.Exit(1)
	}
}

// run is the whole command behind a testable seam: flags in args,
// results to stdout, diagnostics to stderr, non-nil error for exit 1. A
// malformed flag still exits 2 with the usage text, as flag.Parse does.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("dynex", flag.ExitOnError)
	fs.SetOutput(stderr)
	var (
		benchName  = fs.String("bench", "gcc", "benchmark name from the suite (see -benches)")
		pattern    = fs.String("pattern", "", "run a §3 pattern instead of a benchmark: between-loops, loop-levels, within-loop, three-way")
		traceFile  = fs.String("trace", "", "replay a dynex trace file instead of a benchmark (see cmd/tracegen)")
		kind       = fs.String("kind", "instr", "reference stream: instr, data, or mixed")
		refs       = fs.Int("refs", 1_000_000, "number of references to simulate")
		warmup     = fs.Int("warmup", 0, "references excluded from the reported stats (single-level policies; must leave a nonempty window)")
		size       = fs.Uint64("size", 32<<10, "cache size in bytes")
		line       = fs.Uint64("line", 4, "line size in bytes")
		policyStr  = fs.String("policy", "de", "policy spec, e.g. de:sticky=2,store=hashed*4 ("+strings.Join(policy.Names(), ", ")+")")
		lastLine   = fs.Bool("lastline", false, "force the §6 last-line buffer on/off (default: auto — enabled when line > 4)")
		sticky     = fs.Int("sticky", 1, "sticky levels (1 = the paper's FSM)")
		l2         = fs.Uint64("l2", 0, "add a second level of this size (bytes); 0 = single level")
		strategy   = fs.String("strategy", "assume-hit", "hit-last storage with -l2: assume-hit, assume-miss, hashed")
		benches    = fs.Bool("benches", false, "list benchmarks and exit")
		reportPath = fs.String("report", "", "write a machine-readable RunReport JSON (simulation wall time, refs/sec) to this file")
		debugAddr  = fs.String("debug-addr", "", "serve /metrics and /debug/pprof/ on this address (e.g. :6060)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *benches {
		for _, p := range spec.SuiteParams() {
			fmt.Fprintf(stdout, "%-10s %s (%dKB code, %dKB data)\n", p.Name, p.Description, p.CodeKB, p.DataKB)
		}
		return nil
	}

	pspec, err := policy.Parse(*policyStr)
	if err != nil {
		return err
	}
	// The legacy -lastline and -sticky flags act as spec overrides, but
	// only when given explicitly — a spec option ("de:nolastline") must
	// not be clobbered by a flag default.
	var flagErr error
	fs.Visit(func(f *flag.Flag) {
		switch f.Name {
		case "lastline":
			pspec = pspec.WithLastLine(*lastLine)
		case "sticky":
			if *sticky < 1 || *sticky > 255 {
				flagErr = fmt.Errorf("-sticky %d out of [1,255]", *sticky)
				return
			}
			pspec = pspec.WithSticky(*sticky)
		}
	})
	if flagErr != nil {
		return flagErr
	}
	if *l2 != 0 && *policyStr != "de" {
		return fmt.Errorf("-policy %s is not supported with -l2: the hierarchy's L1 is dynamic exclusion, configured with -sticky, -lastline and -strategy", *policyStr)
	}

	streamRefs, desc, err := loadRefs(*benchName, *pattern, *traceFile, *kind, *refs, *size)
	if err != nil {
		return err
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	geom := cache.DM(*size, *line)
	fmt.Fprintf(stdout, "workload: %s (%d refs)\ncache:    %s, policy %s\n\n", desc, len(streamRefs), geom, pspec)

	// -report: one telemetry cell covering the whole simulation, so the
	// single-run CLI shares the batch drivers' RunReport format.
	var col *telemetry.Collector
	if *reportPath != "" || *debugAddr != "" {
		col = telemetry.NewCollector(1)
	}
	if *debugAddr != "" {
		col.SetInstruments(telemetry.DefaultInstruments(policy.Names()))
		addr, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "dynex: debug server on http://%s/metrics (pprof at /debug/pprof/)\n", addr)
	}
	simStart := time.Now()
	writeReport := func() error {
		if col == nil {
			return nil
		}
		col.RecordCell(desc+"/"+*policyStr, time.Since(simStart), uint64(len(streamRefs)), nil)
		if *reportPath == "" {
			return nil
		}
		return col.WriteReport(*reportPath, "dynex "+strings.Join(args, " "))
	}

	if *l2 != 0 {
		if *warmup != 0 {
			return fmt.Errorf("-warmup is not supported with -l2 (hierarchy counters cover the full stream)")
		}
		if err := runHierarchy(ctx, stdout, streamRefs, geom, *l2, *strategy, *lastLine, *sticky); err != nil {
			return err
		}
		return writeReport()
	}
	// policy.Window runs the cell's fast kernel for every policy,
	// including opt's whole-stream special case, and windows the
	// policy-specific counters alongside the headline stats; the context
	// makes ^C/SIGTERM stop the drive loop at the next chunk boundary.
	m, err := policy.Window(ctx, pspec, geom, streamRefs, *warmup)
	if err != nil {
		return err
	}
	if *warmup > 0 {
		fmt.Fprintf(stdout, "(steady state after %d warmup refs)\n", *warmup)
	}
	fmt.Fprintln(stdout, m.Stats)
	if len(m.Extras) > 0 {
		fmt.Fprintln(stdout, "counters:", formatCounters(m.Extras))
	}
	return writeReport()
}

// formatCounters renders windowed policy counters as "name=value ...".
func formatCounters(extras []cache.Counter) string {
	parts := make([]string, len(extras))
	for i, c := range extras {
		parts[i] = fmt.Sprintf("%s=%d", c.Name, c.Value)
	}
	return strings.Join(parts, " ")
}

// loadRefs builds the requested reference stream.
func loadRefs(benchName, pattern, traceFile, kind string, n int, cacheSize uint64) ([]trace.Ref, string, error) {
	if traceFile != "" {
		f, err := os.Open(traceFile)
		if err != nil {
			return nil, "", err
		}
		defer f.Close()
		var reader trace.Reader
		fr, err := trace.NewFileReader(f)
		switch {
		case err == nil:
			reader = fr
		case err == trace.ErrBadMagic:
			// Not a dynex trace: try the Dinero text format.
			if _, err := f.Seek(0, 0); err != nil {
				return nil, "", err
			}
			reader = trace.NewDinReader(f)
		default:
			return nil, "", err
		}
		refs, err := trace.Collect(reader, n)
		if err != nil {
			return nil, "", err
		}
		return refs, "trace " + traceFile, nil
	}
	if pattern != "" {
		var s patterns.Spec
		switch pattern {
		case "between-loops":
			s = patterns.BetweenLoops(10, 10)
		case "loop-levels":
			s = patterns.LoopLevels(10, 10)
		case "within-loop":
			s = patterns.WithinLoop(10)
		case "three-way":
			s = patterns.ThreeWay(10)
		default:
			return nil, "", fmt.Errorf("unknown pattern %q", pattern)
		}
		return s.Refs(0, cacheSize), "pattern " + s.Name, nil
	}
	b, ok := spec.ByName(benchName)
	if !ok {
		return nil, "", fmt.Errorf("unknown benchmark %q (try -benches)", benchName)
	}
	switch kind {
	case "instr":
		return b.Instr(n), benchName + " instructions", nil
	case "data":
		return b.Data(n), benchName + " data", nil
	case "mixed":
		return b.Mixed(n), benchName + " mixed", nil
	default:
		return nil, "", fmt.Errorf("unknown kind %q", kind)
	}
}

// runHierarchy drives a two-level system through the engine's drive
// loop, honoring cancellation between chunks.
func runHierarchy(ctx context.Context, stdout io.Writer, refs []trace.Ref, l1 cache.Geometry, l2Size uint64, strategy string, lastLine bool, sticky int) error {
	var st hierarchy.Strategy
	switch strategy {
	case "assume-hit":
		st = hierarchy.AssumeHit
	case "assume-miss":
		st = hierarchy.AssumeMiss
	case "hashed":
		st = hierarchy.Hashed
	case "baseline":
		st = hierarchy.Baseline
	default:
		return fmt.Errorf("unknown strategy %q", strategy)
	}
	sys, err := hierarchy.New(hierarchy.Config{
		L1:          l1,
		L2:          cache.DM(l2Size, l1.LineSize),
		Strategy:    st,
		UseLastLine: lastLine,
		StickyMax:   sticky,
	})
	if err != nil {
		return err
	}
	// The system is a cell body like any policy's simulator.
	unit, err := engine.Cell{Policy: func(cache.Geometry) (cache.Simulator, error) { return sys, nil }}.NewColumn()
	if err != nil {
		return err
	}
	if err := engine.Drive(ctx, unit, refs); err != nil {
		return fmt.Errorf("interrupted: %w", err)
	}
	fmt.Fprintf(stdout, "L1: %v\n", sys.L1Stats())
	fmt.Fprintf(stdout, "L2: %v\n", sys.L2Stats())
	fmt.Fprintf(stdout, "global L2 miss rate: %.4f%%\n", 100*sys.GlobalL2MissRate())
	return nil
}
