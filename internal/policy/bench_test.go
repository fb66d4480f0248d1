package policy

import (
	"context"
	"testing"

	"repro/internal/cache"
	"repro/internal/spec"
)

// BenchmarkWindow times one whole windowed single-cell measurement —
// unit construction, the engine's drive loop and the kernel, or opt's
// whole-stream simulation — over a 1M-reference gcc instruction stream
// at 32KB/4B, the single-run CLI's default cell. ns/ref counts stream
// references.
func BenchmarkWindow(b *testing.B) {
	gcc, ok := spec.ByName("gcc")
	if !ok {
		b.Fatal("no gcc benchmark")
	}
	refs := gcc.Instr(1_000_000)
	geom := cache.DM(32<<10, 4)
	for _, name := range []string{"dm", "de", "lru4", "fifo2", "opt"} {
		sp := MustParse(name)
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Window(context.Background(), sp, geom, refs, 0); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(refs)), "ns/ref")
		})
	}
}
