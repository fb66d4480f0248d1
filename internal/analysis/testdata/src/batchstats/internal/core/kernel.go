// Package core is the batch-stats fixture: //dynexcheck:hot column
// kernel methods with per-reference Stats writes (findings) and the
// sanctioned accumulate-then-flush shape (clean).
package core

import "fix/internal/cache"

// Sim is a column kernel whose loops book stats per reference.
type Sim struct {
	tags  []uint64
	stats cache.Stats
}

// Batch is the offending kernel: it books stats once per reference,
// through method calls and through direct field writes.
//
//dynexcheck:hot
func (c *Sim) Batch(refs []uint64) {
	var d cache.Stats
	for _, addr := range refs {
		hit := c.tags[addr%8] == addr
		c.stats.Record(hit) // finding: Stats method call in the loop
		c.stats.Hits++      // finding: write through a Stats field
		c.stats = d         // finding: whole-Stats assignment
		d.Record(hit)       // finding: even a local Stats delta counts per-ref
	}
	c.stats.Add(d) // clean: one flush after the loop
}

// batchOne is a fast path Batch dispatches to: any hot method of a
// column kernel is checked, not only Batch.
//
//dynexcheck:hot
func (c *Sim) batchOne(refs []uint64) {
	for _, addr := range refs {
		c.stats.Record(c.tags[0] == addr) // finding: a hot kernel method's loop
	}
}

// Outcomes makes Sim a column kernel.
func (c *Sim) Outcomes() []cache.Stats { return []cache.Stats{c.stats} }

// Fast is the sanctioned kernel shape; the same writes are legal outside
// a hot column kernel method.
type Fast struct {
	tags  []uint64
	stats cache.Stats
}

// Batch accumulates in plain locals and flushes once.
//
//dynexcheck:hot
func (c *Fast) Batch(refs []uint64) {
	var hits, misses uint64
	for _, addr := range refs {
		if c.tags[addr%8] == addr {
			hits++ // clean: plain local accumulation
		} else {
			misses++
			c.tags[addr%8] = addr // clean: policy-state writes stay legal
		}
	}
	c.stats.Add(cache.Stats{Accesses: uint64(len(refs)), Hits: hits, Misses: misses})
}

// Outcomes makes Fast a column kernel.
func (c *Fast) Outcomes() []cache.Stats { return []cache.Stats{c.stats} }

// Access is scalar code: per-reference Stats writes are its job.
func (c *Fast) Access(addr uint64) {
	for i := 0; i < 1; i++ {
		c.stats.Record(c.tags[addr%8] == addr) // clean: not a hot kernel method
	}
}

// Scalar has a hot Batch but no Outcomes: it is not a column kernel.
type Scalar struct{ stats cache.Stats }

// Batch is clean: the rule covers column kernels only.
//
//dynexcheck:hot
func (s *Scalar) Batch(refs []uint64) {
	for range refs {
		s.stats.Hits++ // clean: not a column kernel
	}
}
