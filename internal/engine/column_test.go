package engine

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/cache"
	"repro/internal/trace"
)

// simColumn is a reference column: it drives one real per-cell
// simulator per member, so a grouped run must produce exactly what the
// per-cell path would.
type simColumn struct {
	sims []cache.Simulator
}

func newSimColumn(geoms []cache.Geometry) (Column, error) {
	c := &simColumn{}
	for _, g := range geoms {
		sim, err := cache.NewDirectMapped(g)
		if err != nil {
			return nil, err
		}
		c.sims = append(c.sims, sim)
	}
	return c, nil
}

func (c *simColumn) Batch(refs []trace.Ref) {
	for _, sim := range c.sims {
		for i := range refs {
			sim.Access(refs[i].Addr)
		}
	}
}

func (c *simColumn) Outcomes() []ColumnOutcome {
	outs := make([]ColumnOutcome, len(c.sims))
	for i, sim := range c.sims {
		outs[i] = ColumnOutcome{Stats: sim.Stats(), Extras: cache.SnapshotExtras(sim)}
	}
	return outs
}

// columnGrid builds a small grid of dm cells over nSizes sizes × nCols
// streams, plus one trailing singleton cell, with one group per stream.
func columnGrid(nSizes, nCols int) ([]Cell, []Group) {
	var cells []Cell
	var groups []Group
	for s := 0; s < nCols; s++ {
		refs := seqRefs(uint64(s*1000), 512)
		stream := func() ([]trace.Ref, error) { return refs, nil }
		var idx []int
		var geoms []cache.Geometry
		for k := 0; k < nSizes; k++ {
			geom := cache.DM(64<<k, 4)
			idx = append(idx, len(cells))
			geoms = append(geoms, geom)
			cells = append(cells, Cell{
				Label:    fmt.Sprintf("col%d/size%d", s, 64<<k),
				Geometry: geom,
				Stream:   stream,
				Policy:   dmPolicy,
			})
		}
		colGeoms := append([]cache.Geometry(nil), geoms...)
		groups = append(groups, Group{
			Indices:   idx,
			NewColumn: func() (Column, error) { return newSimColumn(colGeoms) },
		})
	}
	cells = append(cells, Cell{
		Label:    "singleton",
		Geometry: cache.DM(64, 4),
		Stream:   func() ([]trace.Ref, error) { return seqRefs(7, 256), nil },
		Policy:   dmPolicy,
	})
	return cells, groups
}

// TestRunGroupedMatchesRun pins the core contract: a grouped run's
// result table is indistinguishable from the cell-by-cell one.
func TestRunGroupedMatchesRun(t *testing.T) {
	cells, groups := columnGrid(4, 3)
	want, err := Run(context.Background(), cells, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunGrouped(context.Background(), cells, groups, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].Label != want[i].Label || got[i].Stats != want[i].Stats || got[i].Err != nil {
			t.Errorf("cell %d: grouped %q %+v (err %v) != per-cell %q %+v",
				i, got[i].Label, got[i].Stats, got[i].Err, want[i].Label, want[i].Stats)
		}
	}
}

// TestRunGroupedValidation rejects malformed group sets before running
// anything.
func TestRunGroupedValidation(t *testing.T) {
	cells, _ := columnGrid(2, 1)
	mk := func() (Column, error) { return nil, errors.New("unused") }
	cases := []struct {
		name   string
		groups []Group
	}{
		{"empty indices", []Group{{NewColumn: mk}}},
		{"nil constructor", []Group{{Indices: []int{0, 1}}}},
		{"out of range", []Group{{Indices: []int{0, len(cells)}, NewColumn: mk}}},
		{"negative", []Group{{Indices: []int{-1, 0}, NewColumn: mk}}},
		{"overlap", []Group{{Indices: []int{0, 1}, NewColumn: mk}, {Indices: []int{1, 2}, NewColumn: mk}}},
	}
	for _, c := range cases {
		if _, err := RunGrouped(context.Background(), cells, c.groups, Options{}); err == nil {
			t.Errorf("%s: no error", c.name)
		}
	}
}

// panicColumn panics mid-batch, like a buggy kernel would.
type panicColumn struct{}

func (panicColumn) Batch([]trace.Ref)         { panic("kernel bug") }
func (panicColumn) Outcomes() []ColumnOutcome { return nil }

// TestRunGroupedPanicAttribution re-homes a column panic onto every
// member cell as its own CellPanicError, so failures attribute to
// individual cells.
func TestRunGroupedPanicAttribution(t *testing.T) {
	cells, groups := columnGrid(3, 1)
	groups[0].NewColumn = func() (Column, error) { return panicColumn{}, nil }
	results, err := RunGrouped(context.Background(), cells, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		var pe *CellPanicError
		if !errors.As(results[i].Err, &pe) {
			t.Fatalf("cell %d: err %v, want CellPanicError", i, results[i].Err)
		}
		if pe.Label != cells[i].Label {
			t.Errorf("cell %d: panic labeled %q, want its own label %q", i, pe.Label, cells[i].Label)
		}
		if len(pe.Stack) == 0 {
			t.Errorf("cell %d: panic carries no stack", i)
		}
	}
	if last := results[len(results)-1]; last.Err != nil {
		t.Errorf("singleton outside the group failed too: %v", last.Err)
	}
}

// TestRunGroupedRetry retries a whole column unit on a transient
// failure and reports the shared attempt count on every member.
func TestRunGroupedRetry(t *testing.T) {
	cells, groups := columnGrid(2, 1)
	fails := 2
	inner := groups[0].NewColumn
	groups[0].NewColumn = func() (Column, error) {
		if fails > 0 {
			fails--
			return nil, errors.New("transient column hiccup")
		}
		return inner()
	}
	results, err := RunGrouped(context.Background(), cells, groups, Options{
		Retry: Retry{Attempts: 3, BaseDelay: 1, MaxDelay: 1, Classify: func(error) bool { return true }},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		if results[i].Err != nil {
			t.Fatalf("cell %d: %v after retries", i, results[i].Err)
		}
		if results[i].Attempts != 3 {
			t.Errorf("cell %d: attempts = %d, want 3", i, results[i].Attempts)
		}
	}
}

// shortColumn returns fewer outcomes than the group has members.
type shortColumn struct{}

func (shortColumn) Batch([]trace.Ref)         {}
func (shortColumn) Outcomes() []ColumnOutcome { return make([]ColumnOutcome, 1) }

// TestRunGroupedOutcomeMismatch turns a kernel that mis-counts its
// members into per-cell errors, never into silently wrong rows.
func TestRunGroupedOutcomeMismatch(t *testing.T) {
	cells, groups := columnGrid(3, 1)
	groups[0].NewColumn = func() (Column, error) { return shortColumn{}, nil }
	results, err := RunGrouped(context.Background(), cells, groups, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, i := range groups[0].Indices {
		if results[i].Err == nil {
			t.Errorf("cell %d: no error from a 1-outcome column over 3 members", i)
		}
	}
}

// TestRunGroupedProgressMonotonic pins the satellite fix: with column
// units retiring many cells at once, the Progress done counts are
// strictly increasing, never exceed the total, always advance by whole
// units, and end exactly at total — no sawtooth, no over-100%.
func TestRunGroupedProgressMonotonic(t *testing.T) {
	cells, groups := columnGrid(4, 6) // 6 columns of 4 + 1 singleton = 25 cells
	var mu sync.Mutex
	var seen []int
	results, err := RunGrouped(context.Background(), cells, groups, Options{
		Workers: 8,
		Progress: func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(cells) {
				t.Errorf("total = %d, want %d", total, len(cells))
			}
			seen = append(seen, done)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	if len(seen) == 0 {
		t.Fatal("no progress callbacks")
	}
	for i := 1; i < len(seen); i++ {
		if seen[i] <= seen[i-1] {
			t.Fatalf("progress went from %d to %d (sawtooth)", seen[i-1], seen[i])
		}
	}
	if last := seen[len(seen)-1]; last != len(cells) {
		t.Errorf("final progress %d, want %d", last, len(cells))
	}
	if seen[len(seen)-1] > len(cells) {
		t.Errorf("progress exceeded total")
	}
}

// TestRunGroupedCollectorPerCell checks that a column unit still emits
// started/attempted/finished events for every member cell.
func TestRunGroupedCollectorPerCell(t *testing.T) {
	cells, groups := columnGrid(3, 2)
	rec := &recordingCollector{}
	results, err := RunGrouped(context.Background(), cells, groups, Options{Collector: rec})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatalf("%s: %v", r.Label, r.Err)
		}
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.starts) != len(cells) || len(rec.attempts) != len(cells) || len(rec.finishes) != len(cells) {
		t.Fatalf("events: %d starts, %d attempts, %d finishes; want %d each",
			len(rec.starts), len(rec.attempts), len(rec.finishes), len(cells))
	}
	seen := map[int]bool{}
	for _, f := range rec.finishes {
		if f.Outcome != OutcomeOK {
			t.Errorf("cell %d: outcome %q", f.Index, f.Outcome)
		}
		if f.Refs == 0 {
			t.Errorf("cell %d: zero refs in finish event", f.Index)
		}
		seen[f.Index] = true
	}
	if len(seen) != len(cells) {
		t.Errorf("finish events cover %d distinct cells, want %d", len(seen), len(cells))
	}
}

// TestRunGroupedCancelled marks group members with the context error
// when the run is cancelled before they start.
func TestRunGroupedCancelled(t *testing.T) {
	cells, groups := columnGrid(3, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunGrouped(ctx, cells, groups, Options{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("run error = %v, want context.Canceled", err)
	}
	for i, r := range results {
		if !errors.Is(r.Err, context.Canceled) {
			t.Errorf("cell %d: err %v, want context.Canceled", i, r.Err)
		}
	}
}

// recordingCollector is a goroutine-safe event sink.
type recordingCollector struct {
	mu       sync.Mutex
	starts   []CellStart
	attempts []CellAttempt
	finishes []CellFinish
}

func (c *recordingCollector) CellStarted(e CellStart) {
	c.mu.Lock()
	c.starts = append(c.starts, e)
	c.mu.Unlock()
}

func (c *recordingCollector) CellAttempted(e CellAttempt) {
	c.mu.Lock()
	c.attempts = append(c.attempts, e)
	c.mu.Unlock()
}

func (c *recordingCollector) CellFinished(e CellFinish) {
	c.mu.Lock()
	c.finishes = append(c.finishes, e)
	c.mu.Unlock()
}

// directCell is a Direct cell over an n-reference stream whose function
// is run.
func directCell(n int, run DirectFunc) Cell {
	refs := seqRefs(0, n)
	return Cell{
		Label:    "direct",
		Geometry: cache.DM(64, 4),
		Stream:   func() ([]trace.Ref, error) { return refs, nil },
		Direct:   run,
	}
}

// TestWholeStreamColumnOneBatch pins the whole-stream rule for a Direct
// cell's unit: exactly one call with the entire stream, also when the
// stream is empty, and the cell gets the function's stats.
func TestWholeStreamColumnOneBatch(t *testing.T) {
	for _, n := range []int{3*DriveChunk + 5, 0} {
		var calls []int
		cell := directCell(n, func(refs []trace.Ref, _ cache.Geometry) (cache.Stats, error) {
			calls = append(calls, len(refs))
			return cache.Stats{Accesses: uint64(len(refs))}, nil
		})
		results, err := RunGrouped(context.Background(), []Cell{cell}, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(calls) != 1 || calls[0] != n {
			t.Errorf("n=%d: Direct calls %v, want one with the whole stream", n, calls)
		}
		if r := results[0]; r.Err != nil || r.Stats.Accesses != uint64(n) {
			t.Errorf("n=%d: cell = %+v, want %d accesses", n, r, n)
		}
	}
}

// TestWholeStreamColumnFailsLoudly: a Direct cell whose function fails
// fails with that error, and one whose unit is hidden behind a wrapper
// that embeds only Column — so the engine drives it in chunks — fails
// on the second chunk. Neither yields stats.
func TestWholeStreamColumnFailsLoudly(t *testing.T) {
	boom := errors.New("boom")
	n := 3*DriveChunk + 5
	count := func(refs []trace.Ref, _ cache.Geometry) (cache.Stats, error) {
		return cache.Stats{Accesses: uint64(len(refs))}, nil
	}
	failing := directCell(n, func([]trace.Ref, cache.Geometry) (cache.Stats, error) { return cache.Stats{}, boom })
	wrapped := directCell(n, count)
	for name, run := range map[string]func() (Result, error){
		"err": func() (Result, error) {
			results, err := RunGrouped(context.Background(), []Cell{failing}, nil, Options{})
			return results[0], err
		},
		"wrapped": func() (Result, error) {
			group := Group{Indices: []int{0}, NewColumn: func() (Column, error) {
				col, err := wrapped.NewColumn()
				return struct{ Column }{col}, err
			}}
			results, err := RunGrouped(context.Background(), []Cell{wrapped}, []Group{group}, Options{})
			return results[0], err
		},
	} {
		r, err := run()
		if err != nil {
			t.Fatal(err)
		}
		if r.Err == nil || r.Stats != (cache.Stats{}) {
			t.Errorf("%s: cell = %+v, want an error and zero Stats", name, r)
		}
		if name == "err" && !errors.Is(r.Err, boom) {
			t.Errorf("%s: err %v, want boom", name, r.Err)
		}
	}
}

// TestWholeStreamColumnPanicAttribution re-homes a Direct function's
// panic onto its cell as a CellPanicError.
func TestWholeStreamColumnPanicAttribution(t *testing.T) {
	cell := directCell(100, func([]trace.Ref, cache.Geometry) (cache.Stats, error) { panic("whole-stream kernel bug") })
	results, err := RunGrouped(context.Background(), []Cell{cell}, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var pe *CellPanicError
	if !errors.As(results[0].Err, &pe) || pe.Label != cell.Label {
		t.Errorf("err %v, want a CellPanicError labeled %q", results[0].Err, cell.Label)
	}
}
