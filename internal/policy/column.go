package policy

import (
	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/multisim"
	"repro/internal/opt"
)

// Column returns a constructor for a column kernel that drives this
// spec at every size in sizes (sharing one line size) in a single
// stream pass, or ok=false when the spec is not column-eligible. The
// constructor is deferred — like Cell's PolicyFunc it runs on an
// engine worker, freshly per attempt — and the returned kernel's
// Outcomes follow the order of sizes.
//
// Eligibility (DESIGN.md §15): dm, de (any option set), lru, and fifo
// columns are multisim kernels. opt's column (opt.DMColumn) collects
// the stream, then computes its next uses once for the whole column and
// runs a forward pass per size. One size is a one-member column: the
// kernel is the policy's only fast path. victim / stream / de-stream
// carry auxiliary-buffer state whose traffic depends on each cell's own
// miss sequence, so those families fall back to cell-by-cell simulation. A
// column whose member geometries do not all validate with power-of-two
// set counts is also ineligible, so the per-cell path surfaces the
// construction error for the right cell.
func (s Spec) Column(line uint64, sizes []uint64) (func() (engine.Column, error), bool) {
	ways := 1
	switch s.family {
	case "dm", "de", "opt":
	case "lru", "fifo":
		ways = s.ways
	default:
		return nil, false
	}
	if multisim.Validate(line, sizes, ways) != nil {
		return nil, false
	}
	// Copy: the constructor outlives this call and callers may reuse
	// their slice.
	sz := append([]uint64(nil), sizes...)
	// The last-line decision depends only on the line size, which the
	// whole column shares.
	lastLine := s.lastLineEnabled(cache.Geometry{Size: sz[0], LineSize: line, Ways: 1})
	switch s.family {
	case "dm":
		return func() (engine.Column, error) { return multisim.NewDM(line, sz) }, true
	case "opt":
		return func() (engine.Column, error) { return opt.NewDMColumn(line, sz, lastLine) }, true
	case "de":
		cfg := multisim.DEConfig{
			StickyMax: s.sticky,
			Hashed:    s.hashed,
			Bits:      s.bits,
			AssumeHit: !s.coldMiss,
			LastLine:  lastLine,
		}
		return func() (engine.Column, error) { return multisim.NewDE(cfg, line, sz) }, true
	case "lru":
		return func() (engine.Column, error) { return multisim.NewLRU(line, sz, ways) }, true
	default: // fifo
		return func() (engine.Column, error) { return multisim.NewFIFO(line, sz, ways) }, true
	}
}
