package faultinject

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/trace"
)

// TestInjectDirectiveParse pins the one grammar: stream-fail=N (N > 0)
// or panic=SUBSTR, whole input only.
func TestInjectDirectiveParse(t *testing.T) {
	good := map[string]Directive{
		"":              {},
		"stream-fail=3": {StreamFail: 3},
		"panic=/opt":    {Panic: "/opt"},
		"panic=a=b":     {Panic: "a=b"},
	}
	for s, want := range good {
		if got, err := ParseDirective(s); err != nil || got != want {
			t.Errorf("ParseDirective(%q) = %+v, %v; want %+v", s, got, err, want)
		}
	}
	for _, bad := range []string{"x", "stream-fail", "stream-fail=", "stream-fail=0", "stream-fail=-1",
		"stream-fail=zero", "stream-fail=2abc", "stream-fail=2 ", " stream-fail=2", "panic=", "panic"} {
		if d, err := ParseDirective(bad); err == nil {
			t.Errorf("ParseDirective(%q) = %+v, want an error", bad, d)
		}
	}
}

// TestInjectDirectiveApply: stream faults draw one budget per source,
// and panic=SUBSTR reaches Policy and Direct cells alike and isolates
// them from columns.
func TestInjectDirectiveApply(t *testing.T) {
	refs := seqRefs(0, 256)
	src := func(name string) grid.Source {
		return grid.NewSource(name, func() ([]trace.Ref, error) { return refs, nil })
	}
	plan, err := grid.Spec{
		Sources: []grid.Source{src("alpha"), src("beta")},
		Kind:    "instr", Refs: len(refs),
		Sizes: []uint64{1024, 2048}, Lines: []uint64{4}, Policies: []string{"dm", "opt"},
	}.Build()
	if err != nil {
		t.Fatal(err)
	}
	Directive{StreamFail: 2, Panic: "/opt"}.Apply(&plan)

	// Each source's cells share one flaky stream that fails exactly twice.
	for _, first := range []int{0, len(plan.Cells) / 2} {
		for call := 1; call <= 3; call++ {
			_, err := plan.Cells[first+call%2].Stream()
			if injected := IsInjected(err); injected != (call <= 2) {
				t.Errorf("cell %s, stream call %d: err = %v", plan.Cells[first].Label, call, err)
			}
		}
	}

	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		isOpt := plan.Cells[i].Direct != nil
		var pe *engine.CellPanicError
		if panicked := errors.As(r.Err, &pe); panicked != isOpt {
			t.Errorf("%s: err = %v, want a panic only in opt cells", r.Label, r.Err)
		}
		if plan.Isolated[i] != isOpt {
			t.Errorf("%s: isolated = %v, want %v", r.Label, plan.Isolated[i], isOpt)
		}
	}
}
