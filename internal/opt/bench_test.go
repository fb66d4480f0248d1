package opt

import (
	"sync"
	"testing"

	"repro/internal/spec"
	"repro/internal/trace"
)

// benchStreams synthesizes the benchmark streams once per test binary:
// gcc's 500k-ref instruction stream and its 2M-ref mixed stream.
var benchStreams = sync.OnceValues(func() (instr, mixed []trace.Ref) {
	gcc, ok := spec.ByName("gcc")
	if !ok {
		panic("no gcc benchmark")
	}
	return gcc.Instr(500_000), gcc.Mixed(2_000_000)
})

// sinkNext keeps the benchmarked next-use pass from being optimized away.
var sinkNext []int64

// reportPerRef reports the benchmark's time per stream reference.
func reportPerRef(b *testing.B, refs int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(refs), "ns/ref")
}

// BenchmarkNextUses times the backward next-use pass alone.
func BenchmarkNextUses(b *testing.B) {
	instr, mixed := benchStreams()
	for _, c := range []struct {
		name string
		refs []trace.Ref
		line uint64
	}{
		{"instr-500k-4B", instr, 4},
		{"mixed-2M-16B", mixed, 16},
	} {
		b.Run(c.name, func(b *testing.B) {
			blocks := blocksOf(c.refs, c.line)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sinkNext = nextUses(blocks)
			}
			reportPerRef(b, len(blocks))
		})
	}
}

// BenchmarkOptColumn times a whole optimal direct-mapped column — one
// prepare plus one forward pass per member — over gcc's 500k-ref
// instruction stream at 4B lines, with one member (1KB) and with eight
// (1KB–128KB). ns/ref counts stream references.
func BenchmarkOptColumn(b *testing.B) {
	instr, _ := benchStreams()
	for _, k := range []int{1, 8} {
		var sizes []uint64
		for m := 0; m < k; m++ {
			sizes = append(sizes, 1024<<m)
		}
		b.Run("k="+string(rune('0'+k)), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				col, err := NewDMColumn(4, sizes, false)
				if err != nil {
					b.Fatal(err)
				}
				col.Batch(instr)
			}
			reportPerRef(b, len(instr))
		})
	}
}
