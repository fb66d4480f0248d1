// Package cache mirrors the real simulator base package's Stats shape
// for the batch-stats fixture.
package cache

// Stats mirrors the real event counters.
type Stats struct {
	Accesses uint64
	Hits     uint64
	Misses   uint64
}

// Record books one access outcome.
func (s *Stats) Record(hit bool) {
	s.Accesses++
	if hit {
		s.Hits++
	} else {
		s.Misses++
	}
}

// Add merges a delta into s.
func (s *Stats) Add(d Stats) {
	s.Accesses += d.Accesses
	s.Hits += d.Hits
	s.Misses += d.Misses
}
