package opt

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/spec"
	"repro/internal/trace"
)

// mapNextUses is the reference next-use pass: a Go map of each block's
// most recent position, walked backward.
func mapNextUses(blocks []uint64) []int64 {
	next := make([]int64, len(blocks))
	last := make(map[uint64]int64)
	for i := len(blocks) - 1; i >= 0; i-- {
		if j, ok := last[blocks[i]]; ok {
			next[i] = j
		} else {
			next[i] = infinity
		}
		last[blocks[i]] = int64(i)
	}
	return next
}

// randomRefs returns n uniformly random addresses below 2^bits.
func randomRefs(seed int64, n, bits int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(rng.Int63n(1 << bits))}
	}
	return refs
}

// TestNextUsesMatchesMap is the next-use differential: the
// open-addressing table agrees with a map reference on instruction,
// mixed, sparse 40-bit random (which grows the table many times),
// empty, and single-reference streams.
func TestNextUsesMatchesMap(t *testing.T) {
	gcc, ok := spec.ByName("gcc")
	if !ok {
		t.Fatal("no gcc benchmark")
	}
	for _, c := range []struct {
		name string
		refs []trace.Ref
		line uint64
	}{
		{"instr", gcc.Instr(50000), 4},
		{"mixed", gcc.Mixed(50000), 16},
		{"random40", randomRefs(1, 50000, 40), 4},
		{"empty", nil, 4},
		{"single", []trace.Ref{{Addr: 1 << 39}}, 4},
	} {
		blocks := blocksOf(c.refs, c.line)
		if got, want := nextUses(blocks), mapNextUses(blocks); !slices.Equal(got, want) {
			t.Errorf("%s: next uses differ from the map reference", c.name)
		}
	}
}

// refSimulateDMWindow is the optimal direct-mapped cache written
// directly from its definition: per reference, the last-line buffer,
// then hit, fill, replace or bypass by comparing next uses.
func refSimulateDMWindow(refs []trace.Ref, geom cache.Geometry, useLastLine bool, warmup int) cache.Stats {
	var work []trace.Ref
	var orig []int
	for i, r := range refs {
		if useLastLine && i > 0 && geom.Block(r.Addr) == geom.Block(refs[i-1].Addr) {
			continue
		}
		work = append(work, r)
		orig = append(orig, i)
	}
	decided := make([]bool, len(refs))
	next := mapNextUses(blocksOf(work, geom.LineSize))
	type set struct {
		block uint64
		next  int64
		valid bool
	}
	sets := make([]set, geom.Sets())
	results := make([]cache.Result, len(refs))
	evicted := make([]bool, len(refs))
	for i, r := range work {
		b := geom.Block(r.Addr)
		s := &sets[b%geom.Sets()]
		pos := orig[i]
		decided[pos] = true
		switch {
		case s.valid && s.block == b:
			s.next = next[i]
			results[pos] = cache.Hit
		case !s.valid || next[i] < s.next:
			evicted[pos] = s.valid
			*s = set{block: b, next: next[i], valid: true}
			results[pos] = cache.MissFill
		default:
			results[pos] = cache.MissBypass
		}
	}
	var stats cache.Stats
	for pos := max(warmup, 0); pos < len(refs); pos++ {
		stats.Record(results[pos], evicted[pos]) // in-run refs stay Hit
	}
	return stats
}

// TestPreparedMatchesReference pins prepare plus the forward pass to
// the reference simulator over random streams, sizes, line sizes,
// warmups, and both last-line settings.
func TestPreparedMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 40; trial++ {
		refs := make([]trace.Ref, rng.Intn(3000))
		for i := range refs {
			if i > 0 && rng.Intn(3) == 0 {
				refs[i] = trace.Ref{Addr: refs[i-1].Addr + 4}
			} else {
				refs[i] = trace.Ref{Addr: uint64(rng.Intn(4096)) * 4}
			}
		}
		line := uint64(4) << rng.Intn(4)
		size := line << (2 + rng.Intn(6))
		warmup := rng.Intn(len(refs) + 2)
		for _, lastLine := range []bool{false, true} {
			geom := cache.DM(size, line)
			got := SimulateDMWindow(refs, geom, lastLine, warmup)
			if want := refSimulateDMWindow(refs, geom, lastLine, warmup); got != want {
				t.Fatalf("trial %d (%v lastLine=%v warmup=%d): %+v, want %+v",
					trial, geom, lastLine, warmup, got, want)
			}
		}
	}
}

// TestDMColumnMatchesPerCell: one column pass equals each member's own
// SimulateDM, in the caller's size order, with and without the
// last-line buffer.
func TestDMColumnMatchesPerCell(t *testing.T) {
	gcc, _ := spec.ByName("gcc")
	refs := gcc.Instr(40000)
	for _, line := range []uint64{4, 16, 64} {
		sizes := []uint64{line << 9, line << 6, line << 7, line << 10}
		for _, lastLine := range []bool{false, true} {
			col, err := NewDMColumn(line, sizes, lastLine)
			if err != nil {
				t.Fatal(err)
			}
			col.Batch(refs)
			outs := col.Outcomes()
			for k, size := range sizes {
				want := SimulateDM(refs, cache.DM(size, line), lastLine)
				if outs[k].Stats != want || outs[k].Extras != nil {
					t.Errorf("line %d size %d lastLine=%v: column %+v, want %+v", line, size, lastLine, outs[k], want)
				}
			}
		}
	}
	if _, err := NewDMColumn(4, []uint64{4096, 3 * 4096}, false); err == nil {
		t.Error("NewDMColumn accepted a non-power-of-two size")
	}
	if _, err := NewDMColumn(4, nil, false); err == nil {
		t.Error("NewDMColumn accepted an empty column")
	}
}

// optGrid is a three-size opt column over one stream, as engine cells
// plus the group that covers them.
func optGrid(refs []trace.Ref, newCol func() (engine.Column, error)) ([]engine.Cell, engine.Group) {
	stream := func() ([]trace.Ref, error) { return refs, nil }
	var cells []engine.Cell
	var g engine.Group
	for _, size := range []uint64{1024, 2048, 4096} {
		g.Indices = append(g.Indices, len(cells))
		cells = append(cells, engine.Cell{
			Label:    fmt.Sprintf("opt/%d", size),
			Geometry: cache.DM(size, 4),
			Stream:   stream,
			Direct: func(refs []trace.Ref, geom cache.Geometry) (cache.Stats, error) {
				return SimulateDM(refs, geom, false), nil
			},
		})
	}
	g.NewColumn = newCol
	return cells, g
}

func newOptColumn() (engine.Column, error) {
	return NewDMColumn(4, []uint64{1024, 2048, 4096}, false)
}

// TestDMColumnWholeStream: the column simulates the whole collected
// stream, so a grouped run — the engine feeding it in drive chunks —
// equals the per-cell run over a stream many chunks long and over an
// empty one. Pieces that are consecutive windows of one slice are
// re-joined without a copy, pieces from separate slices are copied, and
// a wrapper that hides every method but Batch and Outcomes changes
// nothing.
func TestDMColumnWholeStream(t *testing.T) {
	gcc, _ := spec.ByName("gcc")
	wrapped := func() (engine.Column, error) {
		c, err := newOptColumn()
		return struct{ engine.Column }{c}, err
	}
	for _, refs := range [][]trace.Ref{gcc.Instr(200000), nil} {
		for _, newCol := range []func() (engine.Column, error){newOptColumn, wrapped} {
			cells, g := optGrid(refs, newCol)
			want, err := engine.Run(context.Background(), cells, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := engine.RunGrouped(context.Background(), cells, []engine.Group{g}, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			for i := range cells {
				if got[i].Err != nil || got[i].Stats != want[i].Stats || got[i].Stats.Accesses != uint64(len(refs)) {
					t.Errorf("%d refs, %s: grouped %+v, per-cell %+v", len(refs), cells[i].Label, got[i], want[i])
				}
			}
		}
	}

	refs := gcc.Instr(20000)
	want := SimulateDM(refs, cache.DM(1024, 4), false)
	window, _ := NewDMColumn(4, []uint64{1024}, false)
	window.Batch(refs[:1000])
	window.Batch(nil)
	window.Batch(refs[1000:])
	if &window.refs[0] != &refs[0] || len(window.refs) != len(refs) {
		t.Error("consecutive windows of one slice were copied")
	}
	pieces, _ := NewDMColumn(4, []uint64{1024}, false)
	pieces.Batch(append([]trace.Ref(nil), refs[:1000]...))
	pieces.Batch(append([]trace.Ref(nil), refs[1000:]...))
	for name, col := range map[string]*DMColumn{"windows": window, "pieces": pieces} {
		if got := col.Outcomes(); len(got) != 1 || got[0].Stats != want {
			t.Errorf("%s: %+v, want %+v", name, got, want)
		}
	}
}

// TestDMColumnPanicAttribution: a column that panics mid-pass (here a
// line size no constructor would accept) fails every member with its
// own CellPanicError.
func TestDMColumnPanicAttribution(t *testing.T) {
	gcc, _ := spec.ByName("gcc")
	cells, g := optGrid(gcc.Instr(1000), func() (engine.Column, error) {
		return &DMColumn{line: 3, sizes: []uint64{1024, 2048, 4096}}, nil
	})
	results, err := engine.RunGrouped(context.Background(), cells, []engine.Group{g}, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		var pe *engine.CellPanicError
		if !errors.As(r.Err, &pe) || pe.Label != cells[i].Label {
			t.Errorf("%s: err %v, want a CellPanicError with its own label", cells[i].Label, r.Err)
		}
	}
}

// failOnce is a DMColumn that fails its attempt after its pass: it
// reports no outcomes.
type failOnce struct{ engine.Column }

func (failOnce) Outcomes() []engine.ColumnOutcome { return nil }

// TestDMColumnRetryCleanState: a retried column is rebuilt, so the
// second attempt's single pass starts from clean state (reusing the
// first attempt's column would collect the stream twice).
func TestDMColumnRetryCleanState(t *testing.T) {
	gcc, _ := spec.ByName("gcc")
	refs := gcc.Instr(50000)
	attempts := 0
	cells, g := optGrid(refs, func() (engine.Column, error) {
		c, err := newOptColumn()
		if attempts++; attempts == 1 {
			return failOnce{c}, err
		}
		return c, err
	})
	results, err := engine.RunGrouped(context.Background(), cells, []engine.Group{g}, engine.Options{
		Retry: engine.Retry{Attempts: 2, BaseDelay: 1, MaxDelay: 1, Classify: func(error) bool { return true }},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		want := SimulateDM(refs, cells[i].Geometry, false)
		if r.Err != nil || r.Attempts != 2 || r.Stats != want {
			t.Errorf("%s: %+v, want %+v after 2 attempts", cells[i].Label, r, want)
		}
	}
}
