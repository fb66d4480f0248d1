package conformance

import (
	"strconv"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// columnVariants lists, per column-eligible family, the option
// variants the column battery runs beyond the family's default spec —
// the same axes the batch battery covers (stores, sticky depth, the §6
// register, associativity), since the column kernels reimplement all of
// them.
var columnVariants = map[string][]string{
	"de":   {"de:sticky=3", "de:store=hashed*4", "de:cold=miss,lastline", "de:nolastline"},
	"lru":  {"lru:ways=4", "lru:ways=1"},
	"fifo": {"fifo:ways=4"},
	"opt":  {"opt:lastline", "opt:nolastline"},
}

// CheckColumnRegistry is the column-kernel differential battery: for
// every registered policy family it asks policy.Spec.Column for a
// column kernel over the size column and either (a) drives the kernel
// through ragged chunk sizes and asserts each member's Stats and Extras
// are bit-identical to simulating that (size, line, policy) cell on its
// own, or (b) — for families with no kernel — asserts the spec reports
// itself column-ineligible, so it falls back to the per-cell path
// rather than silently computing something else. A family added to
// internal/policy is therefore either column-verified or
// fallback-verified with no test changes.
func CheckColumnRegistry(t *testing.T, line uint64, sizes []uint64, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	if opts.Refs == 0 {
		opts.Refs = 6000
	}
	for _, f := range policy.Families() {
		for _, specStr := range append([]string{f.Name}, columnVariants[f.Name]...) {
			sp, err := policy.Parse(specStr)
			if err != nil {
				t.Errorf("variant %q does not parse: %v", specStr, err)
				continue
			}
			newCol, ok := sp.Column(line, sizes)
			if !ok {
				switch f.Name {
				case "dm", "de", "lru", "fifo", "opt":
					t.Errorf("spec %q should be column-eligible at line %d sizes %v", specStr, line, sizes)
				}
				continue
			}
			t.Run(specStr, func(t *testing.T) { checkColumnSpec(t, sp, newCol, line, sizes, opts) })
		}
	}
	// Ineligible geometry: a non-power-of-two set count must refuse the
	// column (the per-cell path owns the error reporting).
	for _, specStr := range []string{"lru:ways=4", "opt"} {
		if _, ok := policy.MustParse(specStr).Column(line, []uint64{sizes[0], sizes[0] * 3}); ok {
			t.Errorf("%s column accepted a non-power-of-two member size", specStr)
		}
	}
}

// checkColumnSpec drives one column kernel and compares every member
// against its own per-cell simulation, ragged chunking included.
func checkColumnSpec(t *testing.T, sp policy.Spec, newCol func() (engine.Column, error), line uint64, sizes []uint64, opts Options) {
	t.Helper()
	chunks := []int{1, 7, 501, 4096}
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, opts.Refs)
		outs, err := runColumn(newCol, refs, chunks)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(outs) != len(sizes) {
			t.Fatalf("seed %d: %d outcomes for %d sizes", seed, len(outs), len(sizes))
		}
		for k, size := range sizes {
			stats, extras, err := cellReference(sp, cache.DM(size, line), refs)
			if err != nil {
				t.Fatalf("seed %d size %d: per-cell reference: %v", seed, size, err)
			}
			if got := outs[k].Stats; got != stats {
				t.Errorf("seed %d size %d: column %+v != per-cell %+v", seed, size, got, stats)
			}
			diffExtras(t, seed, extras, outs[k].Extras)
		}
	}
}

// runColumn builds a column, drives it through the given chunk sizes in
// turn, and returns its Outcomes or the constructor's error.
func runColumn(newCol func() (engine.Column, error), refs []trace.Ref, chunks []int) ([]engine.ColumnOutcome, error) {
	col, err := newCol()
	if err != nil {
		return nil, err
	}
	driveChunks(col, refs, chunks)
	return col.Outcomes(), nil
}

// driveChunks feeds refs to col through the chunk sizes in turn.
func driveChunks(col engine.Column, refs []trace.Ref, chunks []int) {
	for ci := 0; len(refs) > 0; ci++ {
		n := min(chunks[ci%len(chunks)], len(refs))
		col.Batch(refs[:n])
		refs = refs[n:]
	}
}

// cellReference simulates one (spec, geometry) cell on its own, one
// scalar Access per reference (cache.ScalarOnly), or through the
// per-cell Direct path for whole-stream families, whose simulators
// cannot be driven by Access.
func cellReference(sp policy.Spec, geom cache.Geometry, refs []trace.Ref) (cache.Stats, []cache.Counter, error) {
	if direct := sp.Cell().Direct; direct != nil {
		stats, err := direct(refs, geom)
		return stats, nil, err
	}
	sim, err := sp.Build(geom)
	if err != nil {
		return cache.Stats{}, nil, err
	}
	ref := cache.ScalarOnly(sim)
	for i := range refs {
		ref.Access(refs[i].Addr)
	}
	return ref.Stats(), cache.SnapshotExtras(ref), nil
}

// CheckStackProperty asserts LRU inclusion across power-of-two sizes on
// randomized streams, reference by reference: at a fixed line size and
// way count, every hit at size S is a hit at size 2S. This is the
// property the LRU column kernel's shared stack walk is built on (a
// finer set mask only removes entries from the distance count), so the
// battery checks the foundation independently of the kernel itself —
// with plain per-cell simulators on both sides.
func CheckStackProperty(t *testing.T, line uint64, size uint64, ways int, opts Options) {
	t.Helper()
	if opts.Streams == 0 {
		opts.Streams = 4
	}
	if opts.Refs == 0 {
		opts.Refs = 6000
	}
	spec := "lru:ways=" + strconv.Itoa(ways)
	sp, err := policy.Parse(spec)
	if err != nil {
		t.Fatalf("parse %q: %v", spec, err)
	}
	small, err := sp.Build(cache.DM(size, line))
	if err != nil {
		t.Fatalf("build small: %v", err)
	}
	big, err := sp.Build(cache.DM(size*2, line))
	if err != nil {
		t.Fatalf("build big: %v", err)
	}
	for seed := int64(1); seed <= int64(opts.Streams); seed++ {
		refs := refStream(seed, opts.Refs)
		for i := range refs {
			rs := small.Access(refs[i].Addr)
			rb := big.Access(refs[i].Addr)
			if rs == cache.Hit && rb != cache.Hit {
				t.Fatalf("seed %d ref %d (addr %#x): hit at %d bytes but %v at %d bytes — stack property violated",
					seed, i, refs[i].Addr, size, rb, size*2)
			}
		}
	}
	// The subset must be proper on a conflict-heavy stream, or the
	// assertion above is vacuous.
	if small.Stats().Hits >= big.Stats().Hits {
		t.Errorf("small cache hits (%d) not below big cache hits (%d); streams are not exercising capacity",
			small.Stats().Hits, big.Stats().Hits)
	}
}
