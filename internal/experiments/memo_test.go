package experiments

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/engine"
	"repro/internal/obs"
)

// memoRefs keeps the memo tests quick: they count cells, not rates.
const memoRefs = 20_000

// countingCollector counts the cells the engine starts.
type countingCollector struct {
	started atomic.Int64
	onStart func()
}

func (c *countingCollector) CellStarted(engine.CellStart) {
	c.started.Add(1)
	if c.onStart != nil {
		c.onStart()
	}
}
func (c *countingCollector) CellAttempted(engine.CellAttempt) {}
func (c *countingCollector) CellFinished(engine.CellFinish)   {}

// TestMemoCounts pins the memo's accounting on the paper-figures
// sequence: fig03's 30 cells are fig04's 32KB points, and fig05 is a
// view of fig04, so one Workloads simulates fig04's 240 cells once and
// serves the other 270 declared cells from the memo.
func TestMemoCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	memoHits, memoSimulated := memoCells.WithLabelValues("hit"), memoCells.WithLabelValues("simulated")
	hits0, sims0 := memoHits.Value(), memoSimulated.Value()
	w := NewWorkloads(Config{Refs: memoRefs})
	for _, id := range []string{"fig03", "fig04", "fig05"} {
		r, _ := Lookup(id)
		r.Run(w)
	}
	if sims, hits := memoSimulated.Value()-sims0, memoHits.Value()-hits0; sims != 240 || hits != 270 {
		t.Errorf("simulated %d, hits %d; want 240 and 270", sims, hits)
	}
	var b strings.Builder
	if err := obs.Default.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, outcome := range []string{"hit", "simulated"} {
		if !strings.Contains(b.String(), fmt.Sprintf("%s{outcome=%q} ", MetricMemoCells, outcome)) {
			t.Errorf("/metrics lacks the %s series of %s", outcome, MetricMemoCells)
		}
	}
}

// TestConcurrentRunnersShareMemo runs overlapping runners from several
// goroutines on one Workloads: every shared cell is still simulated
// once, and each figure matches its sequential run.
func TestConcurrentRunnersShareMemo(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	sims := memoCells.WithLabelValues("simulated")
	ids := []string{"fig03", "fig04", "fig05", "static", "fig03"}
	want := map[string]string{}
	seq := NewWorkloads(Config{Refs: memoRefs})
	for _, id := range ids {
		r, _ := Lookup(id)
		want[id] = r.Run(seq).String()
	}
	sims0 := sims.Value()
	w := NewWorkloads(Config{Refs: memoRefs})
	got := make([]string, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			r, _ := Lookup(id)
			got[i] = r.Run(w).String()
		}()
	}
	wg.Wait()
	for i, id := range ids {
		if got[i] != want[id] {
			t.Errorf("%s run concurrently differs from its sequential run", id)
		}
	}
	if n := sims.Value() - sims0; n != 240 {
		t.Errorf("concurrent runners simulated %d cells, want fig04's 240 once", n)
	}
}

// TestHierarchyViewsScheduleNothing pins Figures 8 and 9 as views: after
// fig07 on one Workloads, they start no engine cell.
func TestHierarchyViewsScheduleNothing(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	col := &countingCollector{}
	w := NewWorkloads(Config{Refs: memoRefs, Collector: col})
	f7 := Fig07(w)
	// 4 strategies × 7 ratios of hierarchy cells, plus the opt L1
	// reference, over 10 benchmarks.
	if got := col.started.Load(); got != 290 {
		t.Errorf("fig07 started %d cells, want 290", got)
	}
	col.started.Store(0)
	f8, f9 := Fig08(w), Fig09(w)
	if got := col.started.Load(); got != 0 {
		t.Errorf("fig08 and fig09 started %d cells after fig07, want 0", got)
	}
	if f8.String() != (Fig08Result{f7.HierResult}).String() || f9.String() != (Fig09Result{f7.HierResult}).String() {
		t.Error("fig08/fig09 differ from their views of fig07's sweep")
	}
}

// TestCancelLeavesNoPartialCells cancels a run midway through the
// context in Config.Ctx: the runner panics with an error wrapping
// context.Canceled, the memo keeps only cells that finished, and a
// later run on the same Workloads reproduces a clean run exactly — no
// interrupted cell is served as zeros.
func TestCancelLeavesNoPartialCells(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment simulations")
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	col := &countingCollector{}
	col.onStart = func() {
		if col.started.Load() == 5 {
			cancel()
		}
	}
	w := NewWorkloads(Config{Refs: memoRefs, Workers: 2, Collector: col, Ctx: ctx})
	func() {
		defer func() {
			err, _ := recover().(error)
			if !errors.Is(err, context.Canceled) {
				t.Errorf("cancelled Fig04 panicked with %v, want an error wrapping context.Canceled", err)
			}
		}()
		Fig04(w)
		t.Error("cancelled Fig04 returned")
	}()
	kept := len(w.memo)
	for c, r := range w.memo {
		if r.Err != nil || r.Attempts == 0 {
			t.Errorf("%v: failed cell left in the memo: %+v", c, r)
		}
	}
	if kept >= 240 {
		t.Errorf("memo holds %d cells after cancelling a 240-cell run", kept)
	}
	w.cfg.Ctx = nil
	if got, want := Fig04(w).String(), Fig04(NewWorkloads(Config{Refs: memoRefs})).String(); got != want {
		t.Errorf("Fig04 after a cancelled run differs from a clean run:\n%s\nwant:\n%s", got, want)
	}
}
