package main

import (
	"bytes"
	"fmt"
	"time"
	"unsafe"

	"repro/internal/cache"
	"repro/internal/engine"
	"repro/internal/policy"
	"repro/internal/trace"
)

// refBytes is the in-memory size of one materialized reference.
const refBytes = float64(unsafe.Sizeof(trace.Ref{}))

// Kernel probe geometry: one 16KB cache with 16B lines for the batch
// and one-member-column numbers, and the ten power-of-two sizes 1KB to
// 512KB (same line) for the ten-member column.
const (
	probeLine = 16
	probeSize = 16 << 10
)

func probeSizes() []uint64 {
	var s []uint64
	for size := uint64(1 << 10); size <= 512<<10; size <<= 1 {
		s = append(s, size)
	}
	return s
}

// probeLayers runs the traced run's probe phase on the workload's own
// stream: the kernel probe and the trace-decode probe. traceBytes, when
// non-nil, are the bytes to decode; otherwise the stream is encoded
// first (untimed).
func probeLayers(refs []trace.Ref, traceBytes []byte, ls *layerStats, o *outcome) error {
	if len(refs) == 0 {
		return fmt.Errorf("probe: no stream")
	}
	if err := kernelProbe(refs, ls, o); err != nil {
		return err
	}
	if traceBytes == nil {
		var err error
		if traceBytes, err = encodeTrace(refs); err != nil {
			return err
		}
	}
	start := time.Now()
	fr, err := trace.NewFileReader(bytes.NewReader(traceBytes))
	if err != nil {
		return err
	}
	got, err := trace.Collect(fr, len(refs))
	if err != nil {
		return err
	}
	ls.decodeRefsPerS = float64(len(got)) / time.Since(start).Seconds()
	return nil
}

func encodeTrace(refs []trace.Ref) ([]byte, error) {
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		return nil, err
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			return nil, err
		}
	}
	if err := w.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// kernelProbe prices each column-eligible family three ways on refs —
// the per-cell batch path (policy.Spec.Build + cache.RunRefs), a
// one-member column, and a ten-member column — plus opt's Direct path.
// The one-member column must reproduce the batch path's stats exactly;
// a disagreement is a failure.
func kernelProbe(refs []trace.Ref, ls *layerStats, o *outcome) error {
	n := float64(len(refs))
	geom := cache.DM(probeSize, probeLine)
	for _, fam := range kernelFamilies {
		sp, err := policy.Parse(fam)
		if err != nil {
			return err
		}
		sim, err := sp.Build(geom)
		if err != nil {
			return err
		}
		start := time.Now()
		cache.RunRefs(sim, refs)
		ls.kernel["kernel."+fam+".batch_ns_per_ref"] = float64(time.Since(start).Nanoseconds()) / n

		outs, d, err := driveColumn(sp, []uint64{probeSize}, refs)
		if err != nil {
			return err
		}
		ls.kernel["kernel."+fam+".col1_ns_per_ref"] = float64(d.Nanoseconds()) / n
		o.attempted++
		if outs[0].Stats != sim.Stats() {
			o.fail("kernel probe %s: one-member column %+v, batch %+v", fam, outs[0].Stats, sim.Stats())
		}

		sizes := probeSizes()
		if _, d, err = driveColumn(sp, sizes, refs); err != nil {
			return err
		}
		ls.kernel["kernel."+fam+".colN_ns_per_cellref"] = float64(d.Nanoseconds()) / (n * float64(len(sizes)))
	}
	direct := policy.MustParse("opt").Cell().Direct
	start := time.Now()
	if _, err := direct(refs, geom); err != nil {
		return err
	}
	ls.kernel["kernel.opt.ns_per_ref"] = float64(time.Since(start).Nanoseconds()) / n
	return nil
}

// driveColumn runs one column kernel over refs in the engine's chunk
// size and returns its outcomes and the time the pass took.
func driveColumn(sp policy.Spec, sizes []uint64, refs []trace.Ref) ([]engine.ColumnOutcome, time.Duration, error) {
	newCol, ok := sp.Column(probeLine, sizes)
	if !ok {
		return nil, 0, fmt.Errorf("probe: %s has no column kernel", sp)
	}
	start := time.Now()
	col, err := newCol()
	if err != nil {
		return nil, 0, err
	}
	const chunk = 1 << 15
	for rest := refs; len(rest) > 0; {
		k := min(chunk, len(rest))
		col.Batch(rest[:k])
		rest = rest[k:]
	}
	outs := col.Outcomes()
	return outs, time.Since(start), nil
}
