package policy

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/cache"
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
		sim := cache.MustDirectMapped(cache.DM(64, 4))
		_, err := Window(sim, conflictRefs(c.n), c.warmup)
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

	m, err := Window(cache.MustDirectMapped(geom), refs, warmup)
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
		t.Errorf("uninstrumented simulator returned extras %+v", m.Extras)
	}
}

// TestWindowExtras checks the policy counters subtract over the same
// window as the headline stats — a steady-state report must not mix
// full-stream counters with warmup-subtracted stats.
func TestWindowExtras(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := conflictRefs(400)
	const warmup = 100

	sim := MustBuild("de", geom)
	m, err := Window(sim, refs, warmup)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if m.Stats.Accesses != uint64(len(refs)-warmup) {
		t.Fatalf("window accesses = %d", m.Stats.Accesses)
	}

	// Replay just the prefix on a fresh simulator: window + prefix
	// counters must add up to the full-stream counters.
	pre := MustBuild("de", geom)
	cache.RunRefs(pre, refs[:warmup])
	preExtras := cache.SnapshotExtras(pre)
	fullExtras := cache.SnapshotExtras(sim)
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
// cases: no warmup, a warmup landing exactly on a windowChunk boundary,
// and a warmup inside the final chunk must all measure identically to
// one unchunked scalar pass with the snapshot taken by hand.
func TestWindowBatchWarmupEdges(t *testing.T) {
	geom := cache.DM(1<<10, 16)
	n := windowChunk + 2500
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
	for _, spec := range []string{"dm", "de", "lru:ways=4"} {
		spec := spec
		t.Run(spec, func(t *testing.T) {
			for _, warmup := range []int{0, windowChunk, n - 100} {
				m, err := Window(MustBuild(spec, geom), refs, warmup)
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

// instrumentedDirect is a WindowDirect simulator that also carries
// counters, for pinning the Extras contract on the direct path.
type instrumentedDirect struct {
	windows uint64
}

func (s *instrumentedDirect) Access(uint64) cache.Result { panic("drive via Window") }
func (s *instrumentedDirect) Stats() cache.Stats         { return cache.Stats{} }
func (s *instrumentedDirect) Extras() []cache.Counter {
	return []cache.Counter{{Name: "windows", Value: s.windows}}
}
func (s *instrumentedDirect) SimulateWindow(refs []trace.Ref, warmup int) (cache.Stats, error) {
	s.windows++
	return cache.Stats{Accesses: uint64(len(refs) - warmup)}, nil
}

// TestWindowDirectExtrasContract pins the Measurement contract on the
// WindowDirect path: Extras is non-nil (and delta-scoped to the call)
// exactly when the simulator is Instrumented — the same rule as the
// incremental path, so callers never branch on how a spec is driven.
func TestWindowDirectExtrasContract(t *testing.T) {
	refs := conflictRefs(100)
	sim := &instrumentedDirect{}
	m, err := Window(sim, refs, 10)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if len(m.Extras) != 1 || m.Extras[0] != (cache.Counter{Name: "windows", Value: 1}) {
		t.Errorf("first measurement extras = %+v, want windows=1", m.Extras)
	}
	// A second measurement on the same simulator must report only its own
	// delta, not the cumulative counter.
	m2, err := Window(sim, refs, 10)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if len(m2.Extras) != 1 || m2.Extras[0] != (cache.Counter{Name: "windows", Value: 1}) {
		t.Errorf("second measurement extras = %+v, want delta windows=1", m2.Extras)
	}
}

// TestWindowDirect checks the whole-stream path: opt is measured through
// WindowDirect with the same warmup semantics, and its Access panics
// with a pointer at the right entry point.
func TestWindowDirect(t *testing.T) {
	geom := cache.DM(64, 4)
	refs := conflictRefs(200)
	const warmup = 37

	sim := MustBuild("opt", geom)
	m, err := Window(sim, refs, warmup)
	if err != nil {
		t.Fatalf("Window: %v", err)
	}
	if m.Stats.Accesses != uint64(len(refs)-warmup) {
		t.Errorf("opt window accesses = %d, want %d", m.Stats.Accesses, len(refs)-warmup)
	}
	if m.Extras != nil {
		t.Errorf("direct path returned extras %+v", m.Extras)
	}
	if _, err := Window(sim, refs, len(refs)); err == nil {
		t.Error("opt Window with warmup == len(refs) succeeded, want error")
	}

	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("opt Access did not panic")
		}
		if msg, ok := r.(string); !ok || !strings.Contains(msg, "policy.Window") {
			t.Errorf("opt Access panic %v does not point at policy.Window", r)
		}
	}()
	sim.Access(0)
}

// TestWindowCtxCancel pins the graceful-cancel path the single-run CLI
// relies on: a cancelled context stops the chunked drive loop with the
// context's error, while an uncancelled WindowCtx run is bit-identical
// to Window.
func TestWindowCtxCancel(t *testing.T) {
	geom := cache.DM(64, 4)
	// Two chunks' worth of references so a mid-stream check exists.
	refs := conflictRefs(3 * windowChunk / 2)

	want, err := Window(MustBuild("de", geom), refs, 100)
	if err != nil {
		t.Fatal(err)
	}
	got, err := WindowCtx(context.Background(), MustBuild("de", geom), refs, 100)
	if err != nil {
		t.Fatal(err)
	}
	if got.Stats != want.Stats {
		t.Errorf("WindowCtx stats %+v != Window stats %+v", got.Stats, want.Stats)
	}

	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := WindowCtx(cancelled, MustBuild("de", geom), refs, 0); !errors.Is(err, context.Canceled) {
		t.Errorf("pre-cancelled WindowCtx err = %v, want context.Canceled", err)
	}
}
