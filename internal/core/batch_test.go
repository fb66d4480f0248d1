package core_test

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/multisim"
	"repro/internal/trace"
)

// batchRefs builds a conflict-heavy deterministic stream for the
// differential tests: hot conflicting lines plus noise, so hits, fills,
// defenses, overrides, and last-line runs all occur.
func batchRefs(seed int64, n int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		var a uint64
		switch rng.Intn(5) {
		case 0:
			a = 0
		case 1:
			a = 1 << 10 // conflicts with 0 at a 1KB direct-mapped cache
		case 2:
			a = uint64(rng.Intn(4)) * 4 // same-line run fodder
		default:
			a = uint64(rng.Intn(1 << 13))
		}
		refs[i] = trace.Ref{Addr: a, Kind: trace.Instr}
	}
	return refs
}

// deVariant is one FSM configuration, built both as the scalar
// simulator and as the one-member column a single de cell runs as.
type deVariant struct {
	name      string
	line      uint64
	hashed    bool
	assumeHit bool
	lastLine  bool
	sticky    int
}

const variantSize = 1 << 10

func (v deVariant) scalar(t *testing.T) *core.Cache {
	t.Helper()
	geom := cache.DM(variantSize, v.line)
	var store core.HitLastStore = core.NewTableStore(v.assumeHit)
	if v.hashed {
		s, err := core.NewHashedStore(int(geom.Lines()), v.assumeHit)
		if err != nil {
			t.Fatal(err)
		}
		store = s
	}
	return core.Must(core.Config{Geometry: geom, Store: store, UseLastLine: v.lastLine, StickyMax: v.sticky})
}

func (v deVariant) column(t *testing.T) engine.Column {
	t.Helper()
	col, err := multisim.NewDE(multisim.DEConfig{
		StickyMax: max(v.sticky, 1), Hashed: v.hashed, Bits: 1,
		AssumeHit: v.assumeHit, LastLine: v.lastLine,
	}, v.line, []uint64{variantSize})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

var deVariants = []deVariant{
	{name: "table-lastline", line: 16, lastLine: true},
	{name: "table-nolastline", line: 16},
	{name: "table-assumehit", line: 4, assumeHit: true, lastLine: true},
	{name: "hashed", line: 16, hashed: true, lastLine: true},
	{name: "multisticky", line: 16, lastLine: true, sticky: 3},
}

// TestBatchMatchesScalar is the de-kernel differential: for every store
// and FSM variant, the one-member column — the fast path of every
// single de cell — driven in ragged chunks must match scalar Access in
// Stats and in the extras (defenses, overrides, last-line hits).
func TestBatchMatchesScalar(t *testing.T) {
	for _, v := range deVariants {
		v := v
		t.Run(v.name, func(t *testing.T) {
			for seed := int64(1); seed <= 4; seed++ {
				refs := batchRefs(seed, 8000)

				scalar := v.scalar(t)
				cache.RunRefs(scalar, refs)

				col := v.column(t)
				sizes := []int{1, 5, 33, 512, 2048}
				for pos, i := 0, 0; pos < len(refs); i++ {
					n := min(sizes[i%len(sizes)], len(refs)-pos)
					col.Batch(refs[pos : pos+n])
					pos += n
				}
				out := col.Outcomes()[0]

				if scalar.Stats() != out.Stats {
					t.Errorf("seed %d: stats scalar %+v != column %+v", seed, scalar.Stats(), out.Stats)
				}
				if !reflect.DeepEqual(scalar.Extras(), out.Extras) {
					t.Errorf("seed %d: extras scalar %v != column %v", seed, scalar.Extras(), out.Extras)
				}
				if scalar.Extras()[0].Value == 0 {
					t.Fatalf("seed %d: no sticky defenses; the pin is vacuous", seed)
				}
			}
		})
	}
}

// TestBatchInterleavesWithScalar pins state carried across Batch calls:
// the one-member column keeps its FSM, the last-line register, and the
// hit-last store in locals within a call, so feeding the stream in
// thirds must end exactly where scalar Access does.
func TestBatchInterleavesWithScalar(t *testing.T) {
	v := deVariants[0]
	refs := batchRefs(7, 6000)

	scalar := v.scalar(t)
	cache.RunRefs(scalar, refs)

	col := v.column(t)
	third := len(refs) / 3
	col.Batch(refs[:third])
	col.Batch(refs[third : 2*third])
	col.Batch(refs[2*third:])
	out := col.Outcomes()[0]

	if scalar.Stats() != out.Stats {
		t.Errorf("stats: scalar %+v != column %+v", scalar.Stats(), out.Stats)
	}
	if !reflect.DeepEqual(scalar.Extras(), out.Extras) {
		t.Errorf("extras: scalar %v != column %v", scalar.Extras(), out.Extras)
	}
}

// TestBatchEmpty pins that an empty batch is a no-op on the one-member
// column.
func TestBatchEmpty(t *testing.T) {
	col := deVariants[0].column(t)
	col.Batch(nil)
	if out := col.Outcomes()[0]; out.Stats != (cache.Stats{}) {
		t.Errorf("nil batch advanced stats: %+v", out.Stats)
	}
}
