package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/patterns"
	"repro/internal/policy"
	"repro/internal/trace"
)

// TestTwoPartyWithinTwoOfOptimal is §3's bound as a property: on a
// two-party loop (aᴺbᴹ)ᴷ — two instructions that conflict in one
// direct-mapped line, executed N and then M times per iteration for K
// iterations, from a cold cache — dynamic exclusion takes at most two
// more misses than the optimal direct-mapped cache with bypass. The
// paper states the bound for exactly this scope, the family its three
// §3 patterns belong to (between loops N = M, loop levels M = 1, within
// a loop N = M = 1). Both caches get the same last-line buffer setting,
// since the buffer alone changes the miss count by whole runs.
//
// The draws cover N, M and K from 1 to 40, one-word and multi-word
// lines, both cold starts and the hashed store, with the pair placed at
// a random word-aligned base (so at a random set and line offset).
func TestTwoPartyWithinTwoOfOptimal(t *testing.T) {
	const size = 1 << 10
	pairs := [][2]string{
		{"de", "opt"},
		{"de:cold=miss", "opt"},
		{"de:nolastline", "opt:nolastline"},
		{"de:store=hashed*4", "opt"},
	}
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 400; trial++ {
		n, m, k := 1+rng.Intn(40), 1+rng.Intn(40), 1+rng.Intn(40)
		geom := cache.DM(size, 4<<(2*rng.Intn(3)))
		base := 4 * uint64(rng.Intn(size))
		pat := patterns.Spec{Inner: []patterns.Step{{Sym: 'a', Count: n}, {Sym: 'b', Count: m}}, Outer: k}
		refs := pat.Refs(base, size)
		for _, p := range pairs {
			de, op := misses(t, p[0], geom, refs), misses(t, p[1], geom, refs)
			if de > op+2 {
				t.Errorf("(a^%d b^%d)^%d at %v, base %#x: %s %d misses, %s %d — more than two over optimal",
					n, m, k, geom, base, p[0], de, p[1], op)
			}
		}
	}

	// Outside the scope the bound fails: three parties in one line,
	// (abc)ᴺ, defeat the one-sticky-bit FSM (§4), so the property is
	// about two-party loops, not a general guarantee.
	geom := cache.DM(size, 4)
	refs := patterns.ThreeWay(10).Refs(0, size)
	if de, op := misses(t, "de", geom, refs), misses(t, "opt", geom, refs); de <= op+2 {
		t.Errorf("(abc)^10: de %d misses, opt %d; expected the two-party bound not to hold", de, op)
	}
}

// misses runs spec over refs at geom from a cold cache.
func misses(t *testing.T, spec string, geom cache.Geometry, refs []trace.Ref) uint64 {
	t.Helper()
	sim, err := policy.MustParse(spec).Build(geom)
	if err != nil {
		t.Fatal(err)
	}
	m, err := policy.Window(sim, refs, 0)
	if err != nil {
		t.Fatal(err)
	}
	return m.Stats.Misses
}
