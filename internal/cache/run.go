package cache

import (
	"io"

	"repro/internal/trace"
)

// Run drives sim with every reference from r (at most limit references;
// limit <= 0 means all) and returns the number of references delivered,
// one Access per reference.
//
// Partial-count semantics, matching trace.Collect and trace.Drive: on a
// reader error, the returned n is the number of references that were
// delivered to sim before the error — sim's Stats describe exactly those
// n accesses, so a caller can still report the valid prefix of a corrupt
// trace alongside the error.
func Run(sim Simulator, r trace.Reader, limit int) (int, error) {
	n := 0
	for limit <= 0 || n < limit {
		ref, err := r.Next()
		if err == io.EOF {
			return n, nil
		}
		if err != nil {
			return n, err
		}
		sim.Access(ref.Addr)
		n++
	}
	return n, nil
}

// RunRefs drives sim with an in-memory reference slice, one scalar
// Access per reference. Simulators are the semantic reference; the fast
// path for a sweep cell is its policy's column kernel (internal/multisim,
// run by the engine as a one-member column), not this loop.
func RunRefs(sim Simulator, refs []trace.Ref) {
	for _, ref := range refs {
		sim.Access(ref.Addr)
	}
}

// ScalarOnly returns sim behind a wrapper that exposes exactly the
// scalar Simulator surface (plus Extras when sim is Instrumented): the
// reference a differential test compares a kernel against, with every
// other method of the concrete simulator out of reach.
func ScalarOnly(sim Simulator) Simulator {
	if in, ok := sim.(Instrumented); ok {
		return scalarInstrumented{in}
	}
	return scalarSimulator{sim}
}

// scalarSimulator exposes only Access and Stats: embedding the interface
// value promotes the interface's methods and nothing else.
type scalarSimulator struct{ Simulator }

// scalarInstrumented additionally preserves Extras.
type scalarInstrumented struct{ Instrumented }
