package conformance

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cache"
)

func TestStreamDeterministic(t *testing.T) {
	a := stream(3, 1000)
	b := stream(3, 1000)
	if !reflect.DeepEqual(a, b) {
		t.Error("stream is not deterministic for a fixed seed")
	}
	c := stream(4, 1000)
	if reflect.DeepEqual(a, c) {
		t.Error("different seeds should give different streams")
	}
}

func TestStreamIsConflictHeavy(t *testing.T) {
	addrs := stream(1, 4000)
	hot := 0
	for _, a := range addrs {
		if a == 0 || a == 1<<14 {
			hot++
		}
	}
	// Roughly 2/6 of draws target the two hot conflicting addresses.
	if hot < len(addrs)/5 {
		t.Errorf("only %d/%d hot references; stream lost its conflict pressure", hot, len(addrs))
	}
}

func TestCheckAcceptsAKnownGoodSimulator(t *testing.T) {
	Check(t, "dm", Options{EventualHit: true, Streams: 2, Refs: 500},
		func() cache.Simulator { return cache.MustDirectMapped(cache.DM(1<<12, 16)) })
}

// TestRegistryConformance drives every registered policy family through
// the battery at two geometries (one-word and multi-word lines), so a
// family added to the registry is conformance-checked automatically.
func TestRegistryConformance(t *testing.T) {
	for _, geom := range []cache.Geometry{cache.DM(1<<13, 4), cache.DM(1<<12, 16)} {
		geom := geom
		t.Run(geom.String(), func(t *testing.T) {
			CheckRegistry(t, geom, Options{Streams: 3, Refs: 2000})
		})
	}
}

// TestBatchDifferential pins every registered policy spec's single-cell
// engine unit — a one-member column kernel where the spec is eligible,
// its own simulator where not — against scalar Access: identical Stats
// and Extras under ragged chunking.
func TestBatchDifferential(t *testing.T) {
	for _, geom := range []cache.Geometry{cache.DM(1<<13, 4), cache.DM(1<<12, 16)} {
		geom := geom
		t.Run(geom.String(), func(t *testing.T) {
			CheckBatchRegistry(t, geom, Options{Streams: 3})
		})
	}
}

// TestMultisimDifferential pins the single-pass column kernels
// (internal/multisim, DESIGN.md §15) against per-cell simulation for
// every registered policy spec across a power-of-two size column, at
// one-word and multi-word line sizes — and asserts ineligible families
// report themselves so, falling back to the per-cell path.
func TestMultisimDifferential(t *testing.T) {
	cases := []struct {
		line  uint64
		sizes []uint64
	}{
		{4, []uint64{1 << 11, 1 << 12, 1 << 13, 1 << 14}},
		{8, []uint64{1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14}},
		{16, []uint64{1 << 12, 1 << 13, 1 << 15}},
		{64, []uint64{1 << 12}},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("line=%d", c.line), func(t *testing.T) {
			CheckColumnRegistry(t, c.line, c.sizes, Options{Streams: 3})
		})
	}
}

// TestStackProperty asserts the Mattson inclusion property the LRU
// column kernel rests on: on randomized conflict-heavy streams, every
// hit at size S is a hit at size 2S (fixed line and ways), checked
// reference by reference with independent per-cell simulators.
func TestStackProperty(t *testing.T) {
	cases := []struct {
		line, size uint64
		ways       int
	}{
		{4, 1 << 12, 1},
		{4, 1 << 12, 2},
		{16, 1 << 13, 4},
	}
	for _, c := range cases {
		c := c
		t.Run(fmt.Sprintf("line=%d/size=%d/ways=%d", c.line, c.size, c.ways), func(t *testing.T) {
			CheckStackProperty(t, c.line, c.size, c.ways, Options{Streams: 3})
		})
	}
}
