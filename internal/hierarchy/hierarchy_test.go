package hierarchy

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/patterns"
	"repro/internal/trace"
)

const (
	l1Size = 1 << 10
	l2Size = 4 << 10
)

func cfg(st Strategy) Config {
	return Config{
		L1:       cache.DM(l1Size, 4),
		L2:       cache.DM(l2Size, 4),
		Strategy: st,
	}
}

func runRefs(s *System, refs []trace.Ref) {
	for _, r := range refs {
		s.Access(r.Addr)
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{L1: cache.Geometry{Size: 3, LineSize: 4}, L2: cache.DM(l2Size, 4)}); err == nil {
		t.Error("bad L1 accepted")
	}
	if _, err := New(Config{L1: cache.DM(l1Size, 4), L2: cache.Geometry{Size: 3, LineSize: 4}}); err == nil {
		t.Error("bad L2 accepted")
	}
	if _, err := New(Config{L1: cache.DM(l1Size, 4), L2: cache.DM(l2Size, 16)}); err == nil {
		t.Error("mismatched line sizes accepted")
	}
	c := cfg(AssumeHit)
	c.Strategy = Strategy(99)
	if _, err := New(c); err == nil {
		t.Error("unknown strategy accepted")
	}
	c = cfg(Hashed)
	c.HashedBitsPerLine = -1
	if _, err := New(c); err == nil {
		t.Error("negative hashed bits accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("Must did not panic")
		}
	}()
	Must(Config{})
}

func TestStrategyStrings(t *testing.T) {
	want := map[Strategy]string{
		Baseline: "direct-mapped", AssumeHit: "assume-hit",
		AssumeMiss: "assume-miss", Hashed: "hashed", Ideal: "ideal",
		Strategy(42): "unknown",
	}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
}

func TestBaselineMatchesPlainDM(t *testing.T) {
	sys := Must(cfg(Baseline))
	plain := cache.MustDirectMapped(cache.DM(l1Size, 4))
	refs := patterns.LoopLevels(10, 10).Refs(0, l1Size)
	for _, r := range refs {
		sys.Access(r.Addr)
		plain.Access(r.Addr)
	}
	if sys.L1Stats().Misses != plain.Stats().Misses {
		t.Errorf("baseline L1 misses %d, plain DM %d", sys.L1Stats().Misses, plain.Stats().Misses)
	}
	if sys.Strategy() != Baseline {
		t.Error("Strategy() mismatch")
	}
}

func TestDynamicExclusionBeatsBaselineL1(t *testing.T) {
	// On the loop-levels pattern every strategy with a big-enough L2
	// should approach the ideal table, far below the baseline.
	refs := patterns.LoopLevels(10, 50).Refs(0, l1Size)
	base := Must(cfg(Baseline))
	runRefs(base, refs)
	for _, st := range []Strategy{AssumeHit, AssumeMiss, Hashed, Ideal} {
		sys := Must(cfg(st))
		runRefs(sys, refs)
		if got, want := sys.L1Stats().Misses, base.L1Stats().Misses; got >= want {
			t.Errorf("%v: L1 misses %d, baseline %d; want fewer", st, got, want)
		}
	}
}

func TestL2AccessesEqualL1Misses(t *testing.T) {
	for _, st := range []Strategy{Baseline, AssumeHit, AssumeMiss, Hashed, Ideal} {
		sys := Must(cfg(st))
		refs := patterns.BetweenLoops(10, 10).Refs(0, l1Size)
		runRefs(sys, refs)
		if sys.L2Stats().Accesses != sys.L1Stats().Misses {
			t.Errorf("%v: L2 accesses %d != L1 misses %d",
				st, sys.L2Stats().Accesses, sys.L1Stats().Misses)
		}
		if sys.Refs() != uint64(len(refs)) {
			t.Errorf("%v: Refs() = %d, want %d", st, sys.Refs(), len(refs))
		}
		// The cache.Instrumented view an engine cell reports: L1 Stats,
		// L2 accesses and misses as Extras, and the global L2 rate
		// recoverable from them.
		var sim cache.Instrumented = sys
		ex := sim.Extras()
		if sim.Stats() != sys.L1Stats() || len(ex) != 2 ||
			ex[0] != (cache.Counter{Name: "l2_accesses", Value: sys.L2Stats().Accesses}) ||
			ex[1] != (cache.Counter{Name: "l2_misses", Value: sys.L2Stats().Misses}) {
			t.Errorf("%v: Stats %v, Extras %v", st, sim.Stats(), ex)
		}
		if got := float64(ex[1].Value) / float64(sim.Stats().Accesses); got != sys.GlobalL2MissRate() {
			t.Errorf("%v: l2_misses/accesses %v != GlobalL2MissRate %v", st, got, sys.GlobalL2MissRate())
		}
	}
}

func TestAssumeHitInclusive(t *testing.T) {
	// Inclusive policy: after a block is stored in L1, it is also in L2.
	sys := Must(cfg(AssumeHit))
	sys.Access(0)
	if !sys.l2.contains(0) {
		t.Error("inclusive: stored block missing from L2")
	}
}

func TestAssumeMissExclusive(t *testing.T) {
	// Exclusive policy: a block stored in L1 is not (or no longer) in L2;
	// when evicted from L1 it moves to L2 with its hit-last bit.
	sys := Must(cfg(AssumeMiss))
	sys.Access(0) // cold fill into L1
	if sys.l2.contains(0) {
		t.Error("exclusive: L1-resident block should not be in L2")
	}
	sys.Access(0) // hit: hit-last flag set
	// Displace block 0 from L1: two conflicting accesses (first excluded).
	sys.Access(l1Size)
	sys.Access(l1Size)
	if !sys.l2.contains(0) {
		t.Error("exclusive: L1 victim should be spilled to L2")
	}
	if h, ok := sys.l2.lookupH(0); !ok || !h {
		t.Errorf("spilled victim's hit-last bit = %v, %v; want true", h, ok)
	}
}

func TestExcludedBlockStoredInL2(t *testing.T) {
	// An excluded reference must be findable in L2 next time (both
	// policies).
	for _, st := range []Strategy{AssumeHit, AssumeMiss, Hashed, Ideal} {
		sys := Must(cfg(st))
		sys.Access(0)
		res := sys.Access(l1Size) // conflicting; excluded under sticky
		if st != AssumeHit && res != cache.MissBypass {
			t.Errorf("%v: conflict result = %v", st, res)
		}
		if !sys.l2.contains(l1Size) {
			t.Errorf("%v: excluded block not stored in L2", st)
		}
	}
}

func TestAssumeHitDefaultsToReplacement(t *testing.T) {
	// With assume-hit, a block never seen by L2 defaults to hit-last set,
	// so the first conflicting access displaces even a sticky resident —
	// i.e. cold behavior degenerates toward conventional DM.
	sys := Must(cfg(AssumeHit))
	sys.Access(0)
	if res := sys.Access(l1Size); res != cache.MissFill {
		t.Errorf("assume-hit cold conflict = %v, want immediate fill", res)
	}
}

func TestAssumeHitEqualL2SizeDegeneratesToDM(t *testing.T) {
	// Paper §5: "if the L2 cache is the same size as the L1 cache, the
	// assume-hit option gives no improvement since the cache degenerates
	// to conventional direct-mapped behavior."
	c := cfg(AssumeHit)
	c.L2 = cache.DM(l1Size, 4) // L2 == L1 size
	sys := Must(c)
	base := Must(Config{L1: cache.DM(l1Size, 4), L2: cache.DM(l1Size, 4), Strategy: Baseline})
	refs := patterns.WithinLoop(200).Refs(0, l1Size)
	runRefs(sys, refs)
	runRefs(base, refs)
	// Identical L1 miss counts (within the cold-start handful).
	diff := int64(sys.L1Stats().Misses) - int64(base.L1Stats().Misses)
	if diff < -2 || diff > 2 {
		t.Errorf("assume-hit@1x misses %d vs baseline %d; want ~equal",
			sys.L1Stats().Misses, base.L1Stats().Misses)
	}
}

func TestExclusivePoliciesImproveL2(t *testing.T) {
	// Figure 8/9: with exclusive content (assume-miss, hashed) the L2
	// holds blocks the L1 does not, so the hierarchy's global miss rate
	// is no worse than the baseline's on a working set that overflows L2.
	rng := rand.New(rand.NewSource(1))
	var refs []trace.Ref
	// Working set ~2x L2: random blocks, plus hot conflicting pair.
	for i := 0; i < 60000; i++ {
		var a uint64
		switch rng.Intn(3) {
		case 0:
			a = uint64(rng.Intn(2*l2Size/4)) * 4
		case 1:
			a = 0
		default:
			a = l1Size
		}
		refs = append(refs, trace.Ref{Addr: a})
	}
	base := Must(cfg(Baseline))
	runRefs(base, refs)
	am := Must(cfg(AssumeMiss))
	runRefs(am, refs)
	if am.GlobalL2MissRate() > base.GlobalL2MissRate() {
		t.Errorf("assume-miss global L2 rate %.4f > baseline %.4f",
			am.GlobalL2MissRate(), base.GlobalL2MissRate())
	}
}

func TestGlobalL2MissRateZeroWhenUntouched(t *testing.T) {
	sys := Must(cfg(AssumeMiss))
	if sys.GlobalL2MissRate() != 0 {
		t.Error("untouched hierarchy should report 0")
	}
}

func TestMovedUpCounter(t *testing.T) {
	sys := Must(cfg(AssumeMiss))
	// Put block 0 in L2 (via exclusion), then store it in L1: it must be
	// invalidated in L2 (moved up).
	sys.Access(0)      // L1 fill (exclusive: not in L2)
	sys.Access(l1Size) // excluded → stored in L2
	sys.Access(l1Size) // second conflict → stored in L1, moved out of L2
	if sys.L2Extra().MovedUp == 0 {
		t.Error("expected a moved-up block")
	}
	if sys.l2.contains(l1Size) {
		t.Error("moved-up block still in L2")
	}
}

func TestHashedNeedsNoL2Cooperation(t *testing.T) {
	// The hashed strategy's L1 behavior must be identical regardless of
	// L2 size — the bits live in L1.
	refs := patterns.LoopLevels(10, 30).Refs(0, l1Size)
	a := Must(cfg(Hashed))
	big := cfg(Hashed)
	big.L2 = cache.DM(64<<10, 4)
	b := Must(big)
	runRefs(a, refs)
	runRefs(b, refs)
	if a.L1Stats().Misses != b.L1Stats().Misses {
		t.Errorf("hashed L1 misses depend on L2 size: %d vs %d",
			a.L1Stats().Misses, b.L1Stats().Misses)
	}
}

func TestSetAssociativeL2(t *testing.T) {
	// A 2-way L2 of the same capacity holds conflicting spills a
	// direct-mapped L2 would bounce; the global miss rate must not be
	// worse.
	mk := func(ways int) *System {
		return Must(Config{
			L1:       cache.DM(l1Size, 4),
			L2:       cache.Geometry{Size: l2Size, LineSize: 4, Ways: ways},
			Strategy: AssumeMiss,
		})
	}
	dmL2 := mk(1)
	saL2 := mk(2)
	// Conflicting working set: pairs one L2-size apart plus hot L1 pair.
	var refs []trace.Ref
	for i := 0; i < 40000; i++ {
		var a uint64
		switch i % 4 {
		case 0:
			a = 0
		case 1:
			a = l1Size
		case 2:
			a = uint64(i%23) * 4
		default:
			a = l2Size + uint64(i%23)*4 // conflicts with case 2 in DM L2
		}
		refs = append(refs, trace.Ref{Addr: a})
	}
	runRefs(dmL2, refs)
	runRefs(saL2, refs)
	if saL2.GlobalL2MissRate() > dmL2.GlobalL2MissRate() {
		t.Errorf("2-way L2 global rate %.4f above direct-mapped %.4f",
			saL2.GlobalL2MissRate(), dmL2.GlobalL2MissRate())
	}
	// L1 behavior is unchanged by L2 associativity under assume-miss
	// only if the h-bits survive equally; at minimum, stats stay sane.
	if saL2.L2Stats().Accesses != saL2.L1Stats().Misses {
		t.Error("plumbing broken with associative L2")
	}
}

func TestMetaLRUWithinSet(t *testing.T) {
	m := newMetaDM(cache.Geometry{Size: 32, LineSize: 4, Ways: 2}, false)
	m.insert(0, true)   // set 0
	m.insert(32, false) // same set, second way
	if !m.contains(0) || !m.contains(32) {
		t.Fatal("2 ways should hold both")
	}
	m.probe(0) // touch 0: 32 becomes LRU
	m.insert(64, true)
	if m.contains(32) {
		t.Error("LRU way should have been displaced")
	}
	if !m.contains(0) {
		t.Error("recently probed way displaced")
	}
	if h, ok := m.lookupH(64 / 4); !ok || !h {
		t.Error("metadata lost on insert")
	}
}

func TestLastLinePassthrough(t *testing.T) {
	c := Config{
		L1:          cache.DM(l1Size, 16),
		L2:          cache.DM(l2Size, 16),
		Strategy:    AssumeMiss,
		UseLastLine: true,
	}
	sys := Must(c)
	for _, a := range []uint64{0, 4, 8, 12} {
		sys.Access(a)
	}
	s := sys.L1Stats()
	if s.Misses != 1 || s.Hits != 3 {
		t.Errorf("last-line stats = %+v", s)
	}
}
