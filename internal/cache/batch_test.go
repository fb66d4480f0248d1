package cache_test

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/multisim"
	"repro/internal/trace"
)

// batchRefs builds a conflict-heavy deterministic reference stream that
// exercises hits, fills, and evictions at small geometries.
func batchRefs(seed int64, n int) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(rng.Intn(1 << 12)), Kind: trace.Load}
	}
	return refs
}

// raggedBatches drives a one-member column with chunk sizes that never
// align with anything and returns its one outcome's Stats.
func raggedBatches(t *testing.T, col engine.Column, refs []trace.Ref) cache.Stats {
	t.Helper()
	sizes := []int{1, 3, 17, 256, 1000}
	for pos, i := 0, 0; pos < len(refs); i++ {
		c := min(sizes[i%len(sizes)], len(refs)-pos)
		col.Batch(refs[pos : pos+c])
		pos += c
	}
	outs := col.Outcomes()
	if len(outs) != 1 {
		t.Fatalf("%d outcomes from a one-member column", len(outs))
	}
	return outs[0].Stats
}

// oneMember builds the one-member column kernel a single cell of the
// policy runs as: direct-mapped at ways 1, LRU or FIFO otherwise.
func oneMember(t *testing.T, geom cache.Geometry, pol cache.Policy) engine.Column {
	t.Helper()
	sizes := []uint64{geom.Size}
	var (
		col engine.Column
		err error
	)
	switch {
	case geom.Ways == 1:
		col, err = multisim.NewDM(geom.LineSize, sizes)
	case pol == cache.LRU:
		col, err = multisim.NewLRU(geom.LineSize, sizes, geom.Ways)
	default:
		col, err = multisim.NewFIFO(geom.LineSize, sizes, geom.Ways)
	}
	if err != nil {
		t.Fatal(err)
	}
	return col
}

// TestDirectMappedBatchMatchesScalar pins the one-member dm column, the
// fast path of every single dm cell, against scalar Access: identical
// Stats under ragged chunking.
func TestDirectMappedBatchMatchesScalar(t *testing.T) {
	geom := cache.DM(1<<8, 8)
	refs := batchRefs(1, 5000)

	scalar := cache.MustDirectMapped(geom)
	cache.RunRefs(scalar, refs)
	if got := raggedBatches(t, oneMember(t, geom, cache.LRU), refs); got != scalar.Stats() {
		t.Errorf("stats: scalar %+v != one-member column %+v", scalar.Stats(), got)
	}
}

// TestColumnEmptyBatch pins that an empty (or nil) batch is a
// no-op on every one-member column kernel of this package's policies.
func TestColumnEmptyBatch(t *testing.T) {
	for _, c := range []struct {
		geom cache.Geometry
		pol  cache.Policy
	}{
		{cache.DM(1<<8, 8), cache.LRU},
		{cache.Geometry{Size: 1 << 8, LineSize: 8, Ways: 4}, cache.LRU},
		{cache.Geometry{Size: 1 << 8, LineSize: 8, Ways: 4}, cache.FIFO},
	} {
		col := oneMember(t, c.geom, c.pol)
		col.Batch(nil)
		col.Batch([]trace.Ref{})
		if outs := col.Outcomes(); len(outs) != 1 || outs[0].Stats != (cache.Stats{}) || outs[0].Extras != nil {
			t.Errorf("%v %v: empty batches gave %+v, want one zero outcome", c.geom, c.pol, outs)
		}
	}
}

// TestSetAssocBatchEvictionSequence is the eviction pin: for every
// replacement policy — RandomRepl included, with the same seed —
// RunRefs in ragged chunks displaces the exact same sequence of blocks
// through OnEvict as per-reference Access, and for LRU and FIFO the
// one-member column kernel counts exactly those evictions.
func TestSetAssocBatchEvictionSequence(t *testing.T) {
	geom := cache.Geometry{Size: 1 << 9, LineSize: 8, Ways: 4}
	refs := batchRefs(2, 6000)
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO, cache.RandomRepl} {
		pol := pol
		t.Run(pol.String(), func(t *testing.T) {
			const seed = 99
			var scalarEv, chunkEv []uint64

			scalar := cache.MustSetAssoc(geom, pol, seed)
			scalar.OnEvict = func(block uint64) { scalarEv = append(scalarEv, block) }
			for _, r := range refs {
				scalar.Access(r.Addr)
			}

			chunked := cache.MustSetAssoc(geom, pol, seed)
			chunked.OnEvict = func(block uint64) { chunkEv = append(chunkEv, block) }
			for pos, c := 0, 1; pos < len(refs); c = c*7 + 3 {
				n := min(c%1000+1, len(refs)-pos)
				cache.RunRefs(chunked, refs[pos:pos+n])
				pos += n
			}

			if scalar.Stats() != chunked.Stats() {
				t.Errorf("stats: scalar %+v != chunked %+v", scalar.Stats(), chunked.Stats())
			}
			if len(scalarEv) == 0 {
				t.Fatal("stream produced no evictions; the pin is vacuous")
			}
			if !reflect.DeepEqual(scalarEv, chunkEv) {
				t.Errorf("eviction sequences diverged: scalar %d evictions, chunked %d", len(scalarEv), len(chunkEv))
			}
			if pol == cache.RandomRepl {
				return // no column kernel: a random cell runs on its simulator
			}
			if got := raggedBatches(t, oneMember(t, geom, pol), refs); got != scalar.Stats() ||
				got.Evictions != uint64(len(scalarEv)) {
				t.Errorf("one-member column %+v, scalar %+v with %d evictions", got, scalar.Stats(), len(scalarEv))
			}
		})
	}
}

// TestSetAssocBatchInterleavesWithScalar pins that a one-member LRU or
// FIFO column carries its set state and clock across Batch calls: the
// stream fed in thirds ends exactly where scalar Access does.
func TestSetAssocBatchInterleavesWithScalar(t *testing.T) {
	geom := cache.Geometry{Size: 1 << 9, LineSize: 8, Ways: 4}
	refs := batchRefs(3, 3000)
	third := len(refs) / 3
	for _, pol := range []cache.Policy{cache.LRU, cache.FIFO} {
		scalar := cache.MustSetAssoc(geom, pol, 1)
		cache.RunRefs(scalar, refs)

		col := oneMember(t, geom, pol)
		col.Batch(refs[:third])
		col.Batch(refs[third : 2*third])
		col.Batch(refs[2*third:])
		if got := col.Outcomes()[0].Stats; got != scalar.Stats() {
			t.Errorf("%v: scalar %+v != column fed in thirds %+v", pol, scalar.Stats(), got)
		}
	}
}

// TestScalarOnlyStripsBatchPath pins the differential wrapper: the
// wrapped simulator exposes nothing beyond the scalar surface (no
// Contains, say) yet keeps Extras when the underlying simulator is
// Instrumented, and its stats are the simulator's own.
func TestScalarOnlyStripsBatchPath(t *testing.T) {
	sim := cache.MustSetAssoc(cache.Geometry{Size: 1 << 8, LineSize: 8, Ways: 2}, cache.LRU, 1)
	wrapped := cache.ScalarOnly(sim)
	if _, ok := wrapped.(interface{ Contains(uint64) bool }); ok {
		t.Fatal("ScalarOnly result still exposes Contains")
	}
	refs := batchRefs(4, 500)
	cache.RunRefs(wrapped, refs)
	direct := cache.MustSetAssoc(cache.Geometry{Size: 1 << 8, LineSize: 8, Ways: 2}, cache.LRU, 1)
	cache.RunRefs(direct, refs)
	if wrapped.Stats() != direct.Stats() {
		t.Errorf("scalar-only stats %+v != direct stats %+v", wrapped.Stats(), direct.Stats())
	}

	in := instrumentedStub{}
	if _, ok := cache.ScalarOnly(in).(cache.Instrumented); !ok {
		t.Error("ScalarOnly dropped Extras from an Instrumented simulator")
	}
	if _, ok := cache.ScalarOnly(in).(interface{ Reset() }); ok {
		t.Error("ScalarOnly kept Reset on an Instrumented simulator")
	}
}

// instrumentedStub implements Instrumented plus an extra method, to
// prove ScalarOnly keeps the former and strips the latter.
type instrumentedStub struct{}

func (instrumentedStub) Access(uint64) cache.Result { return cache.Hit }
func (instrumentedStub) Stats() cache.Stats         { return cache.Stats{} }
func (instrumentedStub) Extras() []cache.Counter    { return []cache.Counter{{Name: "x"}} }
func (instrumentedStub) Reset()                     {}

// failingReader yields refs and then err.
type failingReader struct {
	refs []trace.Ref
	err  error
}

func (r *failingReader) Next() (trace.Ref, error) {
	if len(r.refs) == 0 {
		return trace.Ref{}, r.err
	}
	ref := r.refs[0]
	r.refs = r.refs[1:]
	return ref, nil
}

// TestRunBatchedHonorsLimitAndErrors pins Run to its documented
// contract: the limit caps delivery, the whole stream is delivered
// otherwise, and on a reader error the count and the stats cover
// exactly the references delivered before it.
func TestRunBatchedHonorsLimitAndErrors(t *testing.T) {
	refs := batchRefs(5, 3000)
	sim := cache.MustDirectMapped(cache.DM(1<<8, 8))
	n, err := cache.Run(sim, trace.NewSliceReader(refs), 100)
	if err != nil || n != 100 {
		t.Fatalf("Run(limit=100) = %d, %v; want 100, nil", n, err)
	}
	if sim.Stats().Accesses != 100 {
		t.Errorf("sim saw %d accesses, want 100", sim.Stats().Accesses)
	}

	sim2 := cache.MustDirectMapped(cache.DM(1<<8, 8))
	n, err = cache.Run(sim2, trace.NewSliceReader(refs), 0)
	if err != nil || n != len(refs) {
		t.Fatalf("Run(all) = %d, %v; want %d, nil", n, err, len(refs))
	}
	sim3 := cache.MustDirectMapped(cache.DM(1<<8, 8))
	cache.RunRefs(sim3, refs)
	if sim2.Stats() != sim3.Stats() {
		t.Errorf("Run %+v != RunRefs %+v", sim2.Stats(), sim3.Stats())
	}

	boom := errors.New("boom")
	sim4 := cache.MustDirectMapped(cache.DM(1<<8, 8))
	n, err = cache.Run(sim4, &failingReader{refs: refs[:777], err: boom}, 0)
	if !errors.Is(err, boom) || n != 777 || sim4.Stats().Accesses != 777 {
		t.Errorf("Run over a failing reader = %d, %v with %d accesses; want 777, boom, 777", n, err, sim4.Stats().Accesses)
	}
}
