package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/engine"
)

// quantile returns the q-quantile of xs, interpolating linearly between
// the closest ranks (0 for an empty sample).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMiB is the process's resident-set high-water mark: VmHWM from
// /proc/self/status, or getrusage's Maxrss where procfs is absent.
func peakRSSMiB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		return float64(ru.Maxrss) / 1024 // kilobytes on Linux
	}
	return 0
}

// span is one timed layer call of a traced run. Spans of one cell,
// unit or job share Unit; Parent is 0 for a root.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Name   string  `json:"name"`
	Unit   string  `json:"unit,omitempty"`
	Start  float64 `json:"start_ms"`
	End    float64 `json:"end_ms"`
}

// tracer keeps a traced run's spans in memory. A nil *tracer records
// nothing, so untraced passes pay one nil check per layer call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) since(at time.Time) float64 { return ms(at.Sub(t.epoch)) }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent int64, unit string) int64 {
	if t == nil {
		return 0
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: int64(len(t.spans) + 1), Parent: parent, Name: name, Unit: unit, Start: now, End: -1})
	return int64(len(t.spans))
}

// end closes span id; closing twice keeps the first end.
func (t *tracer) end(id int64) {
	if t == nil || id == 0 {
		return
	}
	now := t.since(time.Now())
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := &t.spans[id-1]; s.End < 0 {
		s.End = now
	}
}

// setParent re-homes a span whose caller was not known when it opened.
func (t *tracer) setParent(id, parent int64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].Parent = parent
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// adoptOrphans gives every parentless span named child the earliest-
// starting span named parent whose interval contains it — the caller
// that triggered a shared, once-only load such as stream synthesis.
func (t *tracer) adoptOrphans(child, parent string) {
	spans := t.snapshot()
	for _, c := range spans {
		if c.Name != child || c.Parent != 0 {
			continue
		}
		var best *span
		for i := range spans {
			p := &spans[i]
			if p.Name == parent && p.Start <= c.Start && p.End >= c.End && (best == nil || p.Start < best.Start) {
				best = p
			}
		}
		if best != nil {
			t.setParent(c.ID, best.ID)
		}
	}
}

// selfSeconds sums, per span name, each span's duration minus the part
// of it that the union of its children's intervals covers.
func (t *tracer) selfSeconds() map[string]float64 {
	spans := t.snapshot()
	kids := map[int64][][2]float64{}
	for _, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]float64{s.Start, s.End})
		}
	}
	out := map[string]float64{}
	for _, s := range spans {
		if s.End < 0 {
			continue
		}
		out[s.Name] += (s.End - s.Start - covered(kids[s.ID], s.Start, s.End)) / 1000
	}
	return out
}

// covered is the length of [lo, hi] that the union of ivs covers.
func covered(ivs [][2]float64, lo, hi float64) float64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	total, cur := 0.0, lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// write dumps every span as JSON Lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// engineProbe is the harness's engine.Collector. Column members share
// one unit: the engine reports them with one queue wait and one attempt
// wall, so the probe books each distinct non-zero value once and opens
// one span per unit.
type engineProbe struct {
	tr *tracer

	mu        sync.Mutex
	parent    int64 // span of the enclosing engine run
	unitSpan  map[int]int64
	waitSpan  map[time.Duration]int64
	seenWall  map[time.Duration]bool
	queueWait []float64 // ms per unit
	busy      time.Duration
	attempts  int
	cells     int
}

func newEngineProbe(tr *tracer) *engineProbe {
	return &engineProbe{tr: tr, unitSpan: map[int]int64{}, waitSpan: map[time.Duration]int64{}, seenWall: map[time.Duration]bool{}}
}

// setParent names the span that the next engine run's units hang off.
// A nil probe (an untraced pass) ignores it.
func (p *engineProbe) setParent(id int64) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.parent = id
	p.mu.Unlock()
}

// spanOf is the unit span cell i currently runs under.
func (p *engineProbe) spanOf(i int) int64 {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.unitSpan[i]
}

func (p *engineProbe) CellStarted(e engine.CellStart) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if id, ok := p.waitSpan[e.QueueWait]; ok && e.QueueWait > 0 {
		p.unitSpan[e.Index] = id // another member of a column unit
		return
	}
	id := p.tr.begin("engine.unit", p.parent, e.Label)
	p.unitSpan[e.Index] = id
	if e.QueueWait > 0 {
		p.waitSpan[e.QueueWait] = id
	}
	p.queueWait = append(p.queueWait, ms(e.QueueWait))
}

func (p *engineProbe) CellAttempted(e engine.CellAttempt) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.attempts++
	if !p.seenWall[e.Wall] {
		p.seenWall[e.Wall] = true
		p.busy += e.Wall
	}
}

func (p *engineProbe) CellFinished(e engine.CellFinish) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.cells++
	p.tr.end(p.unitSpan[e.Index])
}
