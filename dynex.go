// Package repro is a production-quality Go reproduction of
//
//	Scott McFarling, "Cache Replacement with Dynamic Exclusion",
//	Proc. 19th International Symposium on Computer Architecture (ISCA), 1992.
//
// It provides the paper's contribution — the dynamic exclusion replacement
// policy for direct-mapped caches — together with every substrate the
// evaluation needs: a trace model, synthetic SPEC89-like workloads,
// conventional and set-associative cache simulators, Belady-optimal
// references, Jouppi's victim cache and stream buffer, and a two-level
// hierarchy with the paper's three hit-last storage strategies.
//
// This root package is the public API: a small facade over the internal
// packages. Typical use:
//
//	// Simulate dynamic exclusion vs a conventional cache on a workload.
//	bench, _ := repro.Benchmark("gcc")
//	refs := bench.Instr(1_000_000)
//
//	dm := repro.MustDirectMapped(repro.DM(32<<10, 4))
//	repro.RunRefs(dm, refs)
//
//	de := repro.MustDynamicExclusion(repro.DEConfig{
//		Geometry: repro.DM(32<<10, 4),
//		Store:    repro.NewHitLastTable(true),
//	})
//	repro.RunRefs(de, refs)
//
//	fmt.Println(dm.Stats().MissRate(), de.Stats().MissRate())
//
// The experiment drivers that regenerate every figure of the paper live in
// cmd/dynex-experiments; see DESIGN.md for the experiment index and
// EXPERIMENTS.md for measured results.
package repro

import (
	"context"
	"io"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/hierarchy"
	"repro/internal/opt"
	"repro/internal/patterns"
	"repro/internal/policy"
	"repro/internal/spec"
	"repro/internal/static"
	"repro/internal/stream"
	"repro/internal/timing"
	"repro/internal/trace"
	"repro/internal/victim"
	"repro/internal/writepolicy"
)

// Reference streams (internal/trace).

// Ref is one memory reference: a byte address plus a kind.
type Ref = trace.Ref

// Kind classifies a reference: Instr, Load, or Store.
type Kind = trace.Kind

// Reference kinds.
const (
	Instr = trace.Instr
	Load  = trace.Load
	Store = trace.Store
)

// Reader is a pull-based reference stream ending with io.EOF.
type Reader = trace.Reader

// Collect drains a Reader into a slice of at most max references
// (max <= 0 collects everything).
func Collect(r Reader, max int) ([]Ref, error) { return trace.Collect(r, max) }

// WriteTrace encodes the stream into w using the compact binary trace
// format (delta+varint; ~1 byte per instruction reference), so expensive
// workloads are generated once and replayed many times. It returns the
// number of references written.
func WriteTrace(w io.Writer, r Reader) (uint64, error) {
	tw, err := trace.NewWriter(w)
	if err != nil {
		return 0, err
	}
	return trace.WriteAll(tw, r)
}

// OpenTrace returns a Reader over a stream previously written with
// WriteTrace.
func OpenTrace(r io.Reader) (Reader, error) { return trace.NewFileReader(r) }

// Limit returns a Reader yielding at most n references from r.
func Limit(r Reader, n int) Reader { return trace.Limit(r, n) }

// Cache geometry and baseline simulators (internal/cache).

// Geometry fixes a cache's capacity, line size, and associativity.
type Geometry = cache.Geometry

// DM returns a direct-mapped geometry of the given size and line size in
// bytes (both powers of two).
func DM(size, lineSize uint64) Geometry { return cache.DM(size, lineSize) }

// Stats counts cache access outcomes.
type Stats = cache.Stats

// Result classifies one access: Hit, MissFill, or MissBypass.
type Result = cache.Result

// Access results.
const (
	Hit        = cache.Hit
	MissFill   = cache.MissFill
	MissBypass = cache.MissBypass
)

// Simulator is anything driveable one address at a time.
type Simulator = cache.Simulator

// DirectMapped is the conventional direct-mapped cache, the paper's
// baseline.
type DirectMapped = cache.DirectMapped

// NewDirectMapped returns a conventional direct-mapped cache.
func NewDirectMapped(g Geometry) (*DirectMapped, error) { return cache.NewDirectMapped(g) }

// MustDirectMapped is NewDirectMapped but panics on error.
func MustDirectMapped(g Geometry) *DirectMapped { return cache.MustDirectMapped(g) }

// SetAssoc is an n-way set-associative cache with LRU, FIFO, or random
// replacement.
type SetAssoc = cache.SetAssoc

// Replacement policies for SetAssoc.
const (
	LRU        = cache.LRU
	FIFO       = cache.FIFO
	RandomRepl = cache.RandomRepl
)

// NewSetAssoc returns a set-associative cache (seed feeds random
// replacement).
func NewSetAssoc(g Geometry, policy cache.Policy, seed int64) (*SetAssoc, error) {
	return cache.NewSetAssoc(g, policy, seed)
}

// Run drives a simulator from a Reader (limit <= 0 means until EOF). On
// a reader error the returned count is the number of references delivered
// to sim before the error — sim's Stats describe exactly that prefix, so
// the valid head of a corrupt trace can still be reported.
func Run(sim Simulator, r Reader, limit int) (int, error) { return cache.Run(sim, r, limit) }

// RunRefs drives a simulator over an in-memory stream, one Access per
// reference.
func RunRefs(sim Simulator, refs []Ref) { cache.RunRefs(sim, refs) }

// Dynamic exclusion — the paper's contribution (internal/core).

// DECache is a direct-mapped cache using the dynamic exclusion
// replacement policy.
type DECache = core.Cache

// DEConfig configures a dynamic exclusion cache.
type DEConfig = core.Config

// HitLastStore supplies hit-last bits for non-resident blocks.
type HitLastStore = core.HitLastStore

// NewDynamicExclusion returns a dynamic exclusion cache.
func NewDynamicExclusion(cfg DEConfig) (*DECache, error) { return core.New(cfg) }

// MustDynamicExclusion is NewDynamicExclusion but panics on error.
func MustDynamicExclusion(cfg DEConfig) *DECache { return core.Must(cfg) }

// NewHitLastTable returns the idealized unbounded hit-last store; def is
// the bit assumed for never-seen blocks (the assume-hit / assume-miss
// cold-start choice).
func NewHitLastTable(def bool) *core.TableStore { return core.NewTableStore(def) }

// NewHashedHitLast returns the paper's hashed hit-last store with the
// given number of one-bit entries (rounded up to a power of two); the
// paper recommends four bits per cache line.
func NewHashedHitLast(entries int, def bool) (*core.HashedStore, error) {
	return core.NewHashedStore(entries, def)
}

// Optimal replacement (internal/opt).

// OptimalDM simulates the optimal direct-mapped cache with bypass
// (Belady replacement restricted to direct-mapped placement) over refs.
func OptimalDM(refs []Ref, g Geometry, lastLine bool) Stats {
	return opt.SimulateDM(refs, g, lastLine)
}

// OptimalSetAssoc simulates Belady-optimal set-associative replacement
// with bypass.
func OptimalSetAssoc(refs []Ref, g Geometry) Stats { return opt.SimulateSetAssoc(refs, g) }

// Related-work baselines (internal/victim, internal/stream).

// VictimCache is a direct-mapped cache with a small fully-associative
// victim buffer [Jou90].
type VictimCache = victim.Cache

// NewVictimCache returns a victim cache with the given buffer entries.
func NewVictimCache(g Geometry, entries int) (*VictimCache, error) { return victim.New(g, entries) }

// StreamCache is a direct-mapped cache with a sequential-prefetch stream
// buffer [Jou90].
type StreamCache = stream.Cache

// NewStreamCache returns a stream-buffered cache of the given depth.
func NewStreamCache(g Geometry, depth int) (*StreamCache, error) { return stream.New(g, depth) }

// StreamExclusion is §6's third long-line implementation: a dynamic
// exclusion cache whose excluded lines are served by a stream buffer.
type StreamExclusion = stream.Exclusion

// NewStreamExclusion returns a dynamic exclusion cache backed by a stream
// buffer of the given depth (cfg.UseLastLine is ignored).
func NewStreamExclusion(cfg DEConfig, depth int) (*StreamExclusion, error) {
	return stream.NewExclusion(cfg, depth)
}

// Policy registry (internal/policy).

// PolicySpec is a parsed policy specification — a named simulator
// configuration like "dm", "de:sticky=2,store=hashed*4", or
// "lru:ways=4". Its Build method constructs the simulator for a
// geometry; its String method renders the canonical spec form.
type PolicySpec = policy.Spec

// ParsePolicy parses a policy spec string. PolicyNames lists every
// accepted name.
func ParsePolicy(s string) (PolicySpec, error) { return policy.Parse(s) }

// PolicyNames returns every accepted policy name (families followed by
// their aliases) in registry order.
func PolicyNames() []string { return policy.Names() }

// Counter is one named policy-specific statistic (sticky defenses,
// last-line hits, ...), exposed uniformly by instrumented simulators.
type Counter = cache.Counter

// Measurement is a windowed run's result: standard stats plus the
// policy's extra counters over the measured window.
type Measurement = policy.Measurement

// Measure runs the policy at geometry g over refs, discarding the first
// warmup references from the returned measurement. Every policy runs on
// its fast single-cell kernel, whole-stream ones (opt) included; the
// result equals driving spec.Build(g)'s simulator one Access per
// reference and subtracting the warmup snapshot.
func Measure(spec PolicySpec, g Geometry, refs []Ref, warmup int) (Measurement, error) {
	return policy.Window(context.Background(), spec, g, refs, warmup)
}

// Two-level hierarchy (§5; internal/hierarchy).

// Hierarchy is a two-level direct-mapped system with dynamic exclusion at
// L1 and a selectable hit-last storage strategy.
type Hierarchy = hierarchy.System

// HierarchyConfig configures a two-level system.
type HierarchyConfig = hierarchy.Config

// Hit-last storage strategies for a hierarchy.
const (
	Baseline   = hierarchy.Baseline
	AssumeHit  = hierarchy.AssumeHit
	AssumeMiss = hierarchy.AssumeMiss
	Hashed     = hierarchy.Hashed
	IdealStore = hierarchy.Ideal
)

// NewHierarchy returns a two-level system.
func NewHierarchy(cfg HierarchyConfig) (*Hierarchy, error) { return hierarchy.New(cfg) }

// Workloads (internal/spec, internal/patterns).

// SpecBenchmark is one synthetic SPEC89-like benchmark.
type SpecBenchmark = spec.Benchmark

// Benchmark builds the named benchmark of the suite (Figure 2 names:
// doduc, eqntott, espresso, fpppp, gcc, li, matrix300, nasa7, spice,
// tomcatv).
func Benchmark(name string) (SpecBenchmark, bool) { return spec.ByName(name) }

// SpecSuite builds all ten benchmarks.
func SpecSuite() []SpecBenchmark { return spec.Suite() }

// Pattern is a §3 loop-conflict pattern specification.
type Pattern = patterns.Spec

// The canonical conflict patterns of §3 (and §4's three-way pattern).
func BetweenLoops(n, m int) Pattern { return patterns.BetweenLoops(n, m) }

// LoopLevels is the (aᴺ b)ᴹ conflict between loop levels.
func LoopLevels(n, m int) Pattern { return patterns.LoopLevels(n, m) }

// WithinLoop is the (ab)ᴺ conflict within a loop.
func WithinLoop(n int) Pattern { return patterns.WithinLoop(n) }

// ThreeWay is the (abc)ᴺ pattern that defeats a single sticky bit.
func ThreeWay(n int) Pattern { return patterns.ThreeWay(n) }

// Timing (internal/timing).

// TimingModel converts miss rates into average memory access time, the
// metric behind the paper's direct-mapped-vs-associative premise.
type TimingModel = timing.Model

// DefaultTiming returns the early-90s latency ratios used by the
// experiments (L1 hit 1 cycle, +0.5 per associativity doubling, +10 to
// L2, +40 to memory).
func DefaultTiming() TimingModel { return timing.Default() }

// Static exclusion baseline (internal/static).

// StaticProfile is a training-run execution profile at one cache
// geometry, the input of the [McF89] compiler-style exclusion baseline.
type StaticProfile = static.Profile

// NewStaticProfile returns an empty profile.
func NewStaticProfile(g Geometry) (*StaticProfile, error) { return static.NewProfile(g) }

// StaticCache is a direct-mapped cache that bypasses a fixed
// excluded-by-address block set.
type StaticCache = static.Cache

// NewStaticCache returns a static-exclusion cache over the excluded block
// set (nil behaves conventionally).
func NewStaticCache(g Geometry, excluded map[uint64]bool) (*StaticCache, error) {
	return static.NewCache(g, excluded)
}

// Write policies (internal/writepolicy).

// WritePolicyCache wraps a content cache with write-back or write-through
// store handling and counts write traffic to the next level.
type WritePolicyCache = writepolicy.Cache

// Write policies.
const (
	WriteBack    = writepolicy.WriteBack
	WriteThrough = writepolicy.WriteThrough
)

// WrapWriteDM adds a write policy to a conventional direct-mapped cache
// (taking over its eviction hook).
func WrapWriteDM(c *DirectMapped, p writepolicy.Policy) (*WritePolicyCache, error) {
	return writepolicy.WrapDM(c, p)
}

// WrapWriteDE adds a write policy to a dynamic exclusion cache (taking
// over its eviction hook).
func WrapWriteDE(c *DECache, p writepolicy.Policy) (*WritePolicyCache, error) {
	return writepolicy.WrapDE(c, p)
}
