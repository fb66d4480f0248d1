package grid

import (
	"context"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/cache"
	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/trace"
)

func openJournal(t *testing.T) *checkpoint.Journal {
	t.Helper()
	j, err := checkpoint.Open(filepath.Join(t.TempDir(), "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { j.Close() })
	return j
}

// TestRunJournalsBeforeCallback pins the crash-safety order: a success
// is in the journal by the time the caller's OnResult sees it, so
// nothing is ever acknowledged that a restart could lose.
func TestRunJournalsBeforeCallback(t *testing.T) {
	plan := partitionPlan(t, []uint64{1024, 2048, 4096}, []uint64{4}, []string{"dm", "victim"})
	j := openJournal(t)
	run := plan.Resume(j)
	if len(run.Pending) != len(plan.Cells) || len(run.Restored) != 0 {
		t.Fatalf("fresh journal: %d pending, %d restored", len(run.Pending), len(run.Restored))
	}
	seen := 0
	err := run.Execute(context.Background(), RunOptions{Engine: engine.Options{
		Workers: 2,
		OnResult: func(i int, r engine.Result) {
			seen++
			rec, ok := j.Lookup(plan.FPs[i])
			if !ok || rec.Stats != r.Stats || rec.Label != plan.Cells[i].Label {
				t.Errorf("cell %d (%s): journal holds %+v (found %v) when the callback runs", i, r.Label, rec, ok)
			}
		},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if seen != len(plan.Cells) || j.Len() != len(plan.Cells) {
		t.Errorf("%d callbacks, %d journal records, want %d each", seen, j.Len(), len(plan.Cells))
	}
	for i, r := range run.Results {
		if r.Err != nil || r.Stats.Accesses == 0 {
			t.Errorf("cell %d: result %+v", i, r)
		}
	}
}

// TestRunRestoresWithoutStreams resumes over a journal holding every
// cell of one source: those cells come back from the journal, their
// stream is never materialized, and only the other source runs.
func TestRunRestoresWithoutStreams(t *testing.T) {
	refs := make([]trace.Ref, 256)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i * 12), Kind: trace.Instr}
	}
	var alphaCalls, betaCalls atomic.Int32
	spec := Spec{
		Sources: []Source{
			{Name: "alpha", Stream: func() ([]trace.Ref, error) { alphaCalls.Add(1); return refs, nil }},
			{Name: "beta", Stream: func() ([]trace.Ref, error) { betaCalls.Add(1); return refs, nil }},
		},
		Kind: "instr", Refs: len(refs),
		Sizes: []uint64{1024, 2048}, Lines: []uint64{4}, Policies: []string{"dm", "opt"},
	}
	plan, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	j := openJournal(t)
	half := len(plan.Cells) / 2 // alpha's block: grid order is source-major
	for i := 0; i < half; i++ {
		rec := checkpoint.Record{Fingerprint: plan.FPs[i], Label: plan.Cells[i].Label,
			Stats: cache.Stats{Accesses: 100, Misses: uint64(i + 1)}, Attempts: 1}
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	run := plan.Resume(j)
	if len(run.Restored) != half || len(run.Pending) != half {
		t.Fatalf("restored %v, pending %v; want alpha's %d cells restored", run.Restored, run.Pending, half)
	}
	if err := run.Execute(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := alphaCalls.Load(); n != 0 {
		t.Errorf("restored source's stream called %d times, want 0", n)
	}
	if betaCalls.Load() == 0 {
		t.Error("pending source's stream never called")
	}
	for i := 0; i < half; i++ {
		if got := run.Results[i].Stats.Misses; got != uint64(i+1) {
			t.Errorf("restored cell %d: misses %d, want the journaled %d", i, got, i+1)
		}
	}
}

// TestRunInjectedCellsStayOutOfColumns resumes a four-size column with
// a journaled hole at 2048 and an isolated (fault-injected) cell at
// 4096: the isolated cell never joins a group, the two survivors still
// form one across both holes, and the isolated cell runs its own
// simulator — the one a fault injector wraps.
func TestRunInjectedCellsStayOutOfColumns(t *testing.T) {
	plan := partitionPlan(t, []uint64{1024, 2048, 4096, 8192}, []uint64{4}, []string{"dm"})
	j := openJournal(t)
	plan.Isolated = make([]bool, len(plan.Cells))
	var built atomic.Int32
	for i, cell := range plan.Cells {
		switch cell.Geometry.Size {
		case 2048:
			if err := j.Append(checkpoint.Record{Fingerprint: plan.FPs[i], Attempts: 1}); err != nil {
				t.Fatal(err)
			}
		case 4096:
			plan.Isolated[i] = true
			inner := cell.Policy
			plan.Cells[i].Policy = func(g cache.Geometry) (cache.Simulator, error) {
				built.Add(1)
				return inner(g)
			}
		}
	}
	run := plan.Resume(j)
	_, groups := run.units(false)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want one per source", len(groups))
	}
	for _, g := range groups {
		var sizes []uint64
		for _, k := range g.Indices {
			i := run.Pending[k]
			if plan.Isolated[i] {
				t.Errorf("isolated cell %s joined a group", plan.Cells[i].Label)
			}
			sizes = append(sizes, plan.Cells[i].Geometry.Size)
		}
		if len(sizes) != 2 || sizes[0] != 1024 || sizes[1] != 8192 {
			t.Errorf("group sizes %v, want [1024 8192]", sizes)
		}
	}
	if err := run.Execute(context.Background(), RunOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := built.Load(); n != 2 {
		t.Errorf("isolated cells built their own simulator %d times, want 2", n)
	}
}

// TestRunScalarFormsNoColumns: -scalar's reference path hands the
// engine no groups, so every cell runs on its own simulator (or opt's
// Direct path), and its results match the columned run's.
func TestRunScalarFormsNoColumns(t *testing.T) {
	plan := partitionPlan(t, []uint64{1024, 2048, 4096}, []uint64{4, 16}, []string{"dm", "de", "opt"})
	scalar := plan.Resume(nil)
	if _, groups := scalar.units(true); len(groups) != 0 {
		t.Errorf("scalar run formed %d groups", len(groups))
	}
	columned := plan.Resume(nil)
	if _, g := columned.units(false); len(g) == 0 {
		t.Fatal("default run formed no groups on a multi-size plan")
	}
	for _, r := range []*Run{scalar, columned} {
		if err := r.Execute(context.Background(), RunOptions{Scalar: r == scalar}); err != nil {
			t.Fatal(err)
		}
	}
	for i, r := range columned.Results {
		if r.Err != nil || r.Stats != scalar.Results[i].Stats {
			t.Errorf("%s: columned %+v, scalar %+v", r.Label, r, scalar.Results[i])
		}
	}
}
