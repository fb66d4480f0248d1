package conformance

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
	"repro/internal/trace"
)

// FuzzColumnVsScalar is the differential fuzz target behind running
// every eligible size column on a single-pass kernel with no off
// switch: for a fuzzed column-eligible registry spec, a power-of-two
// column of 1–6 members at a fuzzed line size, and a seeded reference
// stream driven through fuzzed ragged chunks, every member's Stats and
// Extras must equal a per-cell simulator stripped to one scalar Access
// per reference (cache.ScalarOnly) — for opt, the per-cell Direct path.
//
// Inputs: family picks dm/de/lru/fifo/opt; opts packs the family's
// options (de: sticky depth, hashed store bits, cold start, last-line
// register; lru/fifo: ways; opt: last-line buffer auto, on or off);
// lineExp picks a 4–64B line; baseExp the smallest member's size over
// the minimum; members is a bitmask over eight successive doublings of
// it (the lowest six set bits are the column); seed, n, and chunk shape
// the stream and its batching.
func FuzzColumnVsScalar(f *testing.F) {
	// One seed per family, plus the option axes the column kernels
	// reimplement (stores, sticky depth, cold start, the §6 register,
	// associativity, opt's last-line buffer on and off) and a one-member
	// column.
	f.Add(uint8(0), uint16(0), uint8(0), uint8(2), uint8(0x0f), int64(1), uint16(3000), uint16(4096))
	f.Add(uint8(1), uint16(0), uint8(0), uint8(2), uint8(0x0f), int64(2), uint16(3000), uint16(501))
	f.Add(uint8(1), uint16(0x2a5), uint8(2), uint8(1), uint8(0x35), int64(3), uint16(2500), uint16(7))
	f.Add(uint8(1), uint16(0x1c2), uint8(1), uint8(3), uint8(0x01), int64(4), uint16(2000), uint16(1))
	f.Add(uint8(2), uint16(2), uint8(0), uint8(1), uint8(0x1b), int64(5), uint16(3000), uint16(4096))
	f.Add(uint8(2), uint16(0), uint8(2), uint8(0), uint8(0x07), int64(6), uint16(2500), uint16(33))
	f.Add(uint8(3), uint16(1), uint8(0), uint8(1), uint8(0x0f), int64(7), uint16(3000), uint16(4096))
	f.Add(uint8(3), uint16(3), uint8(1), uint8(2), uint8(0x3f), int64(8), uint16(2500), uint16(100))
	f.Add(uint8(4), uint16(1), uint8(2), uint8(1), uint8(0x3f), int64(9), uint16(3000), uint16(4096))
	f.Add(uint8(4), uint16(2), uint8(0), uint8(0), uint8(0x01), int64(10), uint16(2500), uint16(7))
	f.Fuzz(func(t *testing.T, family uint8, opts uint16, lineExp, baseExp, members uint8, seed int64, n, chunk uint16) {
		specStr := fuzzSpec(family, opts)
		sp, err := policy.Parse(specStr)
		if err != nil {
			t.Fatalf("generated spec %q does not parse: %v", specStr, err)
		}
		ways := 1
		if fam := family % 5; fam == 2 || fam == 3 {
			ways = 1 << (opts % 4)
		}
		line := uint64(4) << (lineExp % 5)
		base := line * uint64(ways) << (baseExp % 6)
		var sizes []uint64
		for b := 0; b < 8 && len(sizes) < 6; b++ {
			if members&(1<<b) != 0 {
				sizes = append(sizes, base<<b)
			}
		}
		if len(sizes) == 0 {
			sizes = []uint64{base}
		}
		newCol, ok := sp.Column(line, sizes)
		if !ok {
			t.Fatalf("spec %q at line %d sizes %v is not column-eligible", specStr, line, sizes)
		}
		refs := fuzzRefs(seed, int(n%6000), 2*sizes[len(sizes)-1])
		outs, err := runColumn(newCol, refs, []int{int(chunk%4096) + 1})
		if err != nil {
			t.Fatalf("%s: %v", specStr, err)
		}
		if len(outs) != len(sizes) {
			t.Fatalf("%d outcomes for %d sizes", len(outs), len(sizes))
		}
		for k, size := range sizes {
			stats, extras, err := cellReference(sp, cache.DM(size, line), refs)
			if err != nil {
				t.Fatalf("%s size %d: per-cell reference: %v", specStr, size, err)
			}
			if got := outs[k].Stats; got != stats {
				t.Errorf("%s line %d size %d: column %+v != scalar %+v", specStr, line, size, got, stats)
			}
			diffExtras(t, int64(size), extras, outs[k].Extras)
		}
	})
}

// fuzzSpec renders a column-eligible registry spec from the fuzzer's
// family selector and option bits.
func fuzzSpec(family uint8, opts uint16) string {
	switch family % 5 {
	case 0:
		return "dm"
	case 1:
		s := fmt.Sprintf("de:sticky=%d", 1+opts%4)
		if opts&0x04 != 0 {
			s += fmt.Sprintf(",store=hashed*%d", 1+(opts>>3)%8)
		}
		if opts&0x40 != 0 {
			s += ",cold=miss"
		}
		switch (opts >> 7) % 3 {
		case 1:
			s += ",lastline"
		case 2:
			s += ",nolastline"
		}
		return s
	case 2:
		return fmt.Sprintf("lru:ways=%d", 1<<(opts%4))
	case 3:
		return fmt.Sprintf("fifo:ways=%d", 1<<(opts%4))
	default:
		return [...]string{"opt", "opt:lastline", "opt:nolastline"}[opts%3]
	}
}

// fuzzRefs is a seeded stream over [0, span) that mixes the three
// shapes the kernels special-case: blocks one half-span apart (conflicts
// in every member), sequential runs (the last-line register), and
// uniform noise.
func fuzzRefs(seed int64, n int, span uint64) []trace.Ref {
	rng := rand.New(rand.NewSource(seed))
	refs := make([]trace.Ref, n)
	var addr uint64
	for i := range refs {
		switch rng.Intn(4) {
		case 0:
			addr = uint64(rng.Intn(8)) * (span / 2)
		case 1:
			addr += 4
		default:
			addr = uint64(rng.Int63n(int64(span)))
		}
		refs[i] = trace.Ref{Addr: addr, Kind: trace.Instr}
	}
	return refs
}
