package conformance

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/policy"
)

// batchVariants lists, per family, the option variants the differential
// battery runs beyond the family's default spec — chosen to exercise
// every kernel path: hashed vs table stores, multi-level sticky, the §6
// last-line register on and off, and wider associativity.
var batchVariants = map[string][]string{
	"de":        {"de:sticky=3", "de:store=hashed*4", "de:cold=miss,lastline", "de:nolastline"},
	"de-stream": {"de-stream:depth=2"},
	"opt":       {"opt:lastline", "opt:nolastline"},
	"lru":       {"lru:ways=4"},
	"fifo":      {"fifo:ways=4"},
	"victim":    {"victim:entries=8"},
	"stream":    {"stream:depth=2"},
}

// CheckBatchRegistry is the single-cell differential battery: for every
// registered policy family (and the option variants above) it builds
// the unit the engine runs one cell of the spec as (policy.Spec.Unit: a
// one-member column kernel where the spec is column-eligible, the
// cell's own body behind engine.Cell.NewColumn where it is not) and
// asserts that driving it with ragged chunk sizes is bit-identical to
// the reference in Stats and Extras; and that policy.Window over the
// same unit measures every window — no warmup, one reference, the
// boundary on every side of the engine's first drive chunk, all but the
// last reference — identically to the reference with the warmup
// snapshot taken by hand. The reference (cellReference) is scalar
// Access for online policies and opt.SimulateDMWindow for the
// whole-stream one. Registering a new family gets the check for free.
func CheckBatchRegistry(t *testing.T, geom cache.Geometry, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	for _, f := range policy.Families() {
		for _, specStr := range append([]string{f.Name}, batchVariants[f.Name]...) {
			sp, err := policy.Parse(specStr)
			if err != nil {
				t.Errorf("variant %q does not parse: %v", specStr, err)
				continue
			}
			t.Run(specStr, func(t *testing.T) { checkBatchSpec(t, sp, geom, opts) })
		}
	}
}

// checkBatchSpec runs the differential checks for one spec at one
// geometry.
func checkBatchSpec(t *testing.T, sp policy.Spec, geom cache.Geometry, opts Options) {
	t.Helper()
	// Longer than one drive chunk, so the windowed cases put the warmup
	// on both sides of a chunk boundary, and the largest ragged chunk
	// fits with room to spare.
	const n = engine.DriveChunk + 3000
	newUnit := sp.Unit(geom)
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, n)

		unit, err := newUnit()
		if err != nil {
			t.Fatalf("unit for %q at %v: %v", sp, geom, err)
		}
		// An empty batch is a no-op. opt's unit simulates on its first
		// Outcomes call, so it gets no early look.
		unit.Batch(nil)
		if sp.Family() != "opt" {
			if outs := unit.Outcomes(); len(outs) != 1 || outs[0].Stats != (cache.Stats{}) {
				t.Fatalf("empty batch produced outcomes %+v", outs)
			}
		}
		driveChunks(unit, refs, []int{1, 7, 501, 4096, 1 << 14})
		outs := unit.Outcomes()
		if len(outs) != 1 {
			t.Fatalf("seed %d: %d outcomes for one cell", seed, len(outs))
		}
		for _, warmup := range []int{0, 1, engine.DriveChunk - 1, engine.DriveChunk, engine.DriveChunk + 1, n - 1} {
			stats, extras, err := cellReference(sp, geom, refs, warmup)
			if err != nil {
				t.Fatalf("reference for %q at %v: %v", sp, geom, err)
			}
			if warmup == 0 {
				if outs[0].Stats != stats {
					t.Errorf("seed %d: reference stats %+v != unit stats %+v", seed, stats, outs[0].Stats)
				}
				diffExtras(t, seed, extras, outs[0].Extras)
			}
			got, err := policy.Window(context.Background(), sp, geom, refs, warmup)
			if err != nil {
				t.Fatalf("seed %d warmup %d: %v", seed, warmup, err)
			}
			if got.Stats != stats {
				t.Errorf("seed %d warmup %d: Window %+v != reference %+v", seed, warmup, got.Stats, stats)
			}
			if (got.Extras == nil) != (extras == nil) {
				t.Errorf("seed %d warmup %d: Window extras %v, reference %v: nil-ness differs", seed, warmup, got.Extras, extras)
			}
			diffExtras(t, int64(warmup), extras, got.Extras)
		}
	}
}

// diffExtras asserts two Extras snapshots are identical in length,
// names, order, and values.
func diffExtras(t *testing.T, tag int64, want, got []cache.Counter) {
	t.Helper()
	if len(want) != len(got) {
		t.Errorf("%d: extras length %d != %d (%v vs %v)", tag, len(got), len(want), got, want)
		return
	}
	for i := range want {
		if want[i] != got[i] {
			t.Errorf("%d: extras[%d] = %+v, want %+v", tag, i, got[i], want[i])
		}
	}
}
