package policy

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/opt"
	"repro/internal/trace"
)

// conflictRefs alternates two blocks that map to the same line in a 64B
// cache, so warmup and steady-state windows differ.
func conflictRefs(n int) []trace.Ref {
	refs := make([]trace.Ref, n)
	for i := range refs {
		if i%2 == 1 {
			refs[i] = trace.Ref{Addr: 64}
		}
	}
	return refs
}

// TestWindowValidation pins the warmup guard: a window that leaves
// nothing to measure is an error, not a silently clamped full-stream
// run.
func TestWindowValidation(t *testing.T) {
	cases := []struct {
		warmup, n int
		ok        bool
	}{
		{0, 100, true},
		{1, 100, true},
		{99, 100, true},
		{100, 100, false}, // consumes the whole stream
		{101, 100, false},
		{-1, 100, false},
		{0, 0, true}, // no warmup requested: empty stream is the caller's problem
	}
	for _, c := range cases {
		_, err := Window(context.Background(), MustParse("dm"), cache.DM(64, 4), conflictRefs(c.n), c.warmup)
		if (err == nil) != c.ok {
			t.Errorf("Window(warmup=%d, n=%d) = %v, want ok=%v", c.warmup, c.n, err, c.ok)
		}
	}
}

// TestWindowStats checks window stats equal full-stream stats minus the
// stats a fresh simulator accumulates over just the warmup prefix
// (deterministic simulators make the snapshot reproducible).
func TestWindowStats(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := conflictRefs(200)
	const warmup = 37

	full := cache.MustDirectMapped(geom)
	cache.RunRefs(full, refs)
	prefix := cache.MustDirectMapped(geom)
	cache.RunRefs(prefix, refs[:warmup])

	m, err := Window(context.Background(), MustParse("dm"), geom, refs, warmup)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if want := full.Stats().Sub(prefix.Stats()); m.Stats != want {
		t.Errorf("window stats = %+v, want %+v", m.Stats, want)
	}
	if m.Stats.Accesses != uint64(len(refs)-warmup) {
		t.Errorf("window accesses = %d, want %d", m.Stats.Accesses, len(refs)-warmup)
	}
	if m.Extras != nil {
		t.Errorf("uninstrumented policy returned extras %+v", m.Extras)
	}
}

// TestWindowExtras checks the policy counters subtract over the same
// window as the headline stats — a steady-state report must not mix
// full-stream counters with warmup-subtracted stats.
func TestWindowExtras(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := conflictRefs(400)
	const warmup = 100

	m, err := Window(context.Background(), MustParse("de"), geom, refs, warmup)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if m.Stats.Accesses != uint64(len(refs)-warmup) {
		t.Fatalf("window accesses = %d", m.Stats.Accesses)
	}

	// Replay the prefix and the whole stream on fresh simulators: window
	// + prefix counters must add up to the full-stream counters.
	pre := MustBuild("de", geom)
	cache.RunRefs(pre, refs[:warmup])
	preExtras := cache.SnapshotExtras(pre)
	full := MustBuild("de", geom)
	cache.RunRefs(full, refs)
	fullExtras := cache.SnapshotExtras(full)
	if len(m.Extras) != len(fullExtras) {
		t.Fatalf("window extras %+v, full-stream extras %+v", m.Extras, fullExtras)
	}
	var defenses uint64
	for i := range fullExtras {
		if m.Extras[i].Name != fullExtras[i].Name {
			t.Fatalf("extras[%d] name %q != %q", i, m.Extras[i].Name, fullExtras[i].Name)
		}
		if m.Extras[i].Value+preExtras[i].Value != fullExtras[i].Value {
			t.Errorf("extras[%s]: window %d + warm %d != full %d",
				m.Extras[i].Name, m.Extras[i].Value, preExtras[i].Value, fullExtras[i].Value)
		}
		if fullExtras[i].Name == "sticky_defenses" {
			defenses = preExtras[i].Value
		}
	}
	// The alternating conflict generates defenses during warmup too, so
	// the subtraction above is exercised on nonzero values.
	if defenses == 0 {
		t.Error("warmup window recorded no sticky defenses; test stream too weak")
	}
}

// TestWindowBatchWarmupEdges pins the chunked drive's warmup edge
// cases: no warmup, a warmup landing exactly on an engine.DriveChunk
// boundary, and a warmup inside the final chunk must all measure
// identically to one unchunked scalar pass with the snapshot taken by
// hand.
func TestWindowBatchWarmupEdges(t *testing.T) {
	geom := cache.DM(1<<10, 16)
	n := engine.DriveChunk + 2500
	refs := make([]trace.Ref, n)
	for i := range refs {
		switch i % 3 {
		case 0:
			refs[i] = trace.Ref{Addr: uint64(i%64) * 16}
		case 1:
			refs[i] = trace.Ref{Addr: 1 << 10}
		default:
			refs[i] = trace.Ref{Addr: uint64(i) * 4 % (1 << 13)}
		}
	}
	for _, spec := range []string{"dm", "de", "lru:ways=4", "victim"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for _, warmup := range []int{0, engine.DriveChunk, n - 100} {
				m, err := Window(context.Background(), MustParse(spec), geom, refs, warmup)
				if err != nil {
					t.Fatalf("warmup %d: %v", warmup, err)
				}
				ref := MustBuild(spec, geom)
				cache.RunRefs(ref, refs[:warmup])
				warmStats, warmExtras := ref.Stats(), cache.SnapshotExtras(ref)
				cache.RunRefs(ref, refs[warmup:])
				if want := ref.Stats().Sub(warmStats); m.Stats != want {
					t.Errorf("warmup %d: chunked %+v != unchunked %+v", warmup, m.Stats, want)
				}
				var want []cache.Counter
				if extras := cache.SnapshotExtras(ref); extras != nil {
					want = cache.SubCounters(extras, warmExtras)
				}
				if len(m.Extras) != len(want) {
					t.Fatalf("warmup %d: extras length %d != %d", warmup, len(m.Extras), len(want))
				}
				for i := range want {
					if m.Extras[i] != want[i] {
						t.Errorf("warmup %d: extras[%d] = %+v, want %+v", warmup, i, m.Extras[i], want[i])
					}
				}
			}
		})
	}
}

// TestWindowDirectExtrasContract pins the Measurement contract: Extras
// is non-nil exactly when the policy has counters — on a column kernel
// (de), a cell's own simulator (victim), and the whole-stream path
// (opt, none) alike, so callers never branch on how a spec is driven —
// and every measurement is its own, so a repeat reports the same delta
// rather than a cumulative count.
func TestWindowDirectExtrasContract(t *testing.T) {
	refs := conflictRefs(100)
	geom := cache.DM(64, 4)
	for spec, instrumented := range map[string]bool{"dm": false, "de": true, "victim": true, "opt": false} {
		first, err := Window(context.Background(), MustParse(spec), geom, refs, 10)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if (first.Extras != nil) != instrumented {
			t.Errorf("%s: extras %+v, want non-nil=%v", spec, first.Extras, instrumented)
		}
		second, err := Window(context.Background(), MustParse(spec), geom, refs, 10)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if second.Stats != first.Stats || len(second.Extras) != len(first.Extras) {
			t.Fatalf("%s: second measurement %+v != first %+v", spec, second, first)
		}
		for i := range first.Extras {
			if second.Extras[i] != first.Extras[i] {
				t.Errorf("%s: second measurement extras[%d] = %+v, want %+v", spec, i, second.Extras[i], first.Extras[i])
			}
		}
	}
}

// TestWindowDirect checks the whole-stream path: opt is measured by
// opt.SimulateDMWindow with the same warmup semantics, an invalid
// geometry is an error rather than a panic, and Build refuses opt with
// a pointer at the right entry points.
func TestWindowDirect(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := conflictRefs(200)
	const warmup = 37

	sp := MustParse("opt")
	m, err := Window(context.Background(), sp, geom, refs, warmup)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if m.Stats.Accesses != uint64(len(refs)-warmup) {
		t.Errorf("opt window accesses = %d, want %d", m.Stats.Accesses, len(refs)-warmup)
	}
	if want := opt.SimulateDMWindow(refs, geom, false, warmup); m.Stats != want {
		t.Errorf("opt window = %+v, want %+v", m.Stats, want)
	}
	if m.Extras != nil {
		t.Errorf("direct path returned extras %+v", m.Extras)
	}
	if _, err := Window(context.Background(), sp, geom, refs, len(refs)); err == nil {
		t.Error("opt Window with warmup == len(refs) succeeded, want error")
	}
	if _, err := Window(context.Background(), sp, cache.DM(96, 4), refs, 0); err == nil {
		t.Error("opt Window at a non-power-of-two geometry succeeded, want error")
	}

	_, err = sp.Build(geom)
	if err == nil {
		t.Fatal("Build(opt) succeeded, want an error")
	}
	for _, name := range []string{"Window", "Cell", "Column"} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("Build(opt) error %q does not point at %s", err, name)
		}
	}
}

// TestWindowCtxCancel pins the graceful-cancel path the single-run CLI
// relies on: a cancelled context stops the drive loop with the
// context's error, while an uncancelled run is bit-identical to one
// scalar pass.
func TestWindowCtxCancel(t *testing.T) {
	geom := cache.DM(64, 4)
	// Two chunks' worth of references so a mid-stream check exists.
	refs := conflictRefs(3 * engine.DriveChunk / 2)

	got, err := Window(context.Background(), MustParse("de"), geom, refs, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := MustBuild("de", geom)
	cache.RunRefs(want, refs)
	if got.Stats != want.Stats() {
		t.Errorf("Window stats %+v != scalar stats %+v", got.Stats, want.Stats())
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	for _, spec := range []string{"de", "opt"} {
		if _, err := Window(cancelled, MustParse(spec), geom, refs, 0); !errors.Is(err, context.Canceled) {
			t.Errorf("%s: pre-cancelled Window err = %v, want context.Canceled", spec, err)
		}
	}
}
