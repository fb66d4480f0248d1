package repro_test

import (
	"bytes"
	"io"
	"testing"

	"repro"
)

// The facade tests double as end-to-end integration tests: workload
// generation → simulation → stats, entirely through the public API.

func TestFacadeQuickstartFlow(t *testing.T) {
	bench, ok := repro.Benchmark("eqntott")
	if !ok {
		t.Fatal("eqntott missing")
	}
	refs := bench.Instr(50_000)
	geom := repro.DM(4<<10, 4)

	dm := repro.MustDirectMapped(geom)
	repro.RunRefs(dm, refs)

	de := repro.MustDynamicExclusion(repro.DEConfig{
		Geometry: geom,
		Store:    repro.NewHitLastTable(true),
	})
	repro.RunRefs(de, refs)

	opt := repro.OptimalDM(refs, geom, false)

	if dm.Stats().Accesses != uint64(len(refs)) || de.Stats().Accesses != uint64(len(refs)) {
		t.Fatal("access counts wrong")
	}
	if opt.Misses > de.Stats().Misses {
		t.Errorf("optimal (%d) beat by DE (%d)", opt.Misses, de.Stats().Misses)
	}
	if opt.Misses > dm.Stats().Misses {
		t.Errorf("optimal (%d) beat by DM (%d)", opt.Misses, dm.Stats().Misses)
	}
}

func TestFacadePolicySpecs(t *testing.T) {
	bench, ok := repro.Benchmark("gcc")
	if !ok {
		t.Fatal("gcc missing")
	}
	refs := bench.Instr(20_000)
	geom := repro.DM(4<<10, 4)

	sp, err := repro.ParsePolicy("de:sticky=2,store=hashed*4")
	if err != nil {
		t.Fatal(err)
	}
	if got := sp.String(); got != "de:sticky=2,store=hashed*4" {
		t.Errorf("canonical form = %q", got)
	}
	m, err := repro.Measure(sp, geom, refs, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if m.Stats.Accesses != uint64(len(refs)-1000) {
		t.Errorf("window accesses = %d, want %d", m.Stats.Accesses, len(refs)-1000)
	}
	if len(m.Extras) == 0 {
		t.Error("dynamic exclusion reported no extra counters")
	}

	names := repro.PolicyNames()
	if len(names) == 0 || names[0] != "dm" {
		t.Errorf("PolicyNames() = %v", names)
	}
	for _, name := range names {
		if _, err := repro.ParsePolicy(name); err != nil {
			t.Errorf("registered name %q does not parse: %v", name, err)
		}
	}
}

func TestFacadePatterns(t *testing.T) {
	geom := repro.DM(1<<10, 4)
	refs := repro.LoopLevels(10, 10).Refs(0, geom.Size)
	de := repro.MustDynamicExclusion(repro.DEConfig{
		Geometry: geom,
		Store:    repro.NewHitLastTable(false),
	})
	repro.RunRefs(de, refs)
	if de.Stats().Misses != 11 {
		t.Errorf("loop-levels DE misses = %d, want 11", de.Stats().Misses)
	}
}

func TestFacadeHierarchy(t *testing.T) {
	sys, err := repro.NewHierarchy(repro.HierarchyConfig{
		L1:       repro.DM(1<<10, 4),
		L2:       repro.DM(4<<10, 4),
		Strategy: repro.AssumeMiss,
	})
	if err != nil {
		t.Fatal(err)
	}
	bench, _ := repro.Benchmark("tomcatv")
	for _, r := range bench.Instr(20_000) {
		sys.Access(r.Addr)
	}
	if sys.L2Stats().Accesses != sys.L1Stats().Misses {
		t.Error("hierarchy plumbing broken")
	}
}

func TestFacadeRelatedWorkBaselines(t *testing.T) {
	geom := repro.DM(1<<10, 16)
	v, err := repro.NewVictimCache(geom, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := repro.NewStreamCache(geom, 4)
	if err != nil {
		t.Fatal(err)
	}
	sa, err := repro.NewSetAssoc(repro.Geometry{Size: 1 << 10, LineSize: 16, Ways: 2}, repro.LRU, 1)
	if err != nil {
		t.Fatal(err)
	}
	for a := uint64(0); a < 4096; a += 4 {
		v.Access(a)
		s.Access(a)
		sa.Access(a)
	}
	if s.Stats().Misses >= v.Stats().Misses {
		t.Errorf("stream buffer (%d misses) should beat victim (%d) on sequential code",
			s.Stats().Misses, v.Stats().Misses)
	}
}

func TestFacadeCollect(t *testing.T) {
	bench, _ := repro.Benchmark("matrix300")
	refs, err := repro.Collect(bench.Run(), 1000)
	if err != nil || len(refs) != 1000 {
		t.Fatalf("Collect = %d refs, %v", len(refs), err)
	}
	var kinds [3]int
	for _, r := range refs {
		kinds[r.Kind]++
	}
	if kinds[repro.Instr] == 0 {
		t.Error("no instruction refs in mixed stream")
	}
}

func TestFacadeOptimalSetAssoc(t *testing.T) {
	geom := repro.Geometry{Size: 1 << 10, LineSize: 4, Ways: 2}
	refs := repro.ThreeWay(10).Refs(0, geom.Size/2)
	st := repro.OptimalSetAssoc(refs, geom)
	if st.Misses != 12 {
		t.Errorf("OPT 2-way (abc)^10 misses = %d, want 12", st.Misses)
	}
}

// TestFacadeRunPartialCount pins repro.Run's error semantics through the
// public API: a corrupt trace delivers its valid prefix (counted exactly)
// before the decode error surfaces.
func TestFacadeRunPartialCount(t *testing.T) {
	var buf bytes.Buffer
	const good = 5
	refs := make([]repro.Ref, good)
	for i := range refs {
		refs[i] = repro.Ref{Addr: uint64(i) * 4, Kind: repro.Instr}
	}
	if _, err := repro.WriteTrace(&buf, sliceReader(refs)); err != nil {
		t.Fatal(err)
	}
	buf.WriteByte(0x03) // record with invalid kind bits

	r, err := repro.OpenTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	sim := repro.MustDirectMapped(repro.DM(64, 4))
	n, err := repro.Run(sim, r, 0)
	if err == nil {
		t.Fatal("corrupt trace did not error")
	}
	if n != good || sim.Stats().Accesses != good {
		t.Errorf("delivered %d refs, stats %d accesses; want %d of each", n, sim.Stats().Accesses, good)
	}
}

// sliceReader adapts a slice to repro.Reader without reaching into
// internal packages.
func sliceReader(refs []repro.Ref) repro.Reader {
	i := 0
	return readerFunc(func() (repro.Ref, error) {
		if i >= len(refs) {
			return repro.Ref{}, io.EOF
		}
		r := refs[i]
		i++
		return r, nil
	})
}

type readerFunc func() (repro.Ref, error)

func (f readerFunc) Next() (repro.Ref, error) { return f() }
