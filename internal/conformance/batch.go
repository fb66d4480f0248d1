package conformance

import (
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

// batchVariants lists, per family, the option variants the differential
// battery runs beyond the family's default spec — chosen to exercise
// every kernel path: hashed vs table stores, multi-level sticky, the §6
// last-line register on and off, and wider associativity.
var batchVariants = map[string][]string{
	"de":        {"de:sticky=3", "de:store=hashed*4", "de:cold=miss,lastline", "de:nolastline"},
	"de-stream": {"de-stream:depth=2"},
	"lru":       {"lru:ways=4"},
	"fifo":      {"fifo:ways=4"},
	"victim":    {"victim:entries=8"},
	"stream":    {"stream:depth=2"},
}

// CheckBatchRegistry is the single-cell differential battery: for every
// registered online policy family (and the option variants above) it
// builds the unit the engine runs one cell of the spec as — a
// one-member column kernel where policy.Spec.Column makes the spec
// eligible (grid.Plan.Partition decides the same way), and the cell's
// own simulator behind engine.Cell.NewColumn where it does not — and
// asserts that driving it with ragged chunk sizes, an empty batch
// first, is bit-identical to scalar Access in Stats and Extras.
// Registering a new family gets the check for free.
func CheckBatchRegistry(t *testing.T, geom cache.Geometry, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	for _, f := range policy.Families() {
		if f.Direct {
			continue // whole-stream policies have no Access to differentiate
		}
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
	// Long enough that the largest ragged chunk fits with room to spare,
	// so every chunk size crosses state the previous chunk left behind.
	const n = 1<<14 + 3000
	cell := sp.Cell()
	cell.Geometry = geom
	newUnit, column := sp.Column(geom.LineSize, []uint64{geom.Size})
	if !column {
		newUnit = cell.NewColumn
	}
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, n)

		scalar, err := sp.Build(geom)
		if err != nil {
			t.Fatalf("build %q at %v: %v", sp, geom, err)
		}
		for i := range refs {
			scalar.Access(refs[i].Addr)
		}

		unit, err := newUnit()
		if err != nil {
			t.Fatalf("unit for %q at %v: %v", sp, geom, err)
		}
		unit.Batch(nil)
		if outs := unit.Outcomes(); len(outs) != 1 || outs[0].Stats != (cache.Stats{}) {
			t.Fatalf("empty batch produced outcomes %+v", outs)
		}
		driveChunks(unit, refs, []int{1, 7, 501, 4096, 1 << 14})
		outs := unit.Outcomes()
		if len(outs) != 1 {
			t.Fatalf("seed %d: %d outcomes for one cell", seed, len(outs))
		}
		if outs[0].Stats != scalar.Stats() {
			t.Errorf("seed %d (column=%v): scalar stats %+v != unit stats %+v", seed, column, scalar.Stats(), outs[0].Stats)
		}
		diffExtras(t, seed, cache.SnapshotExtras(scalar), outs[0].Extras)
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
