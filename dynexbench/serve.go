package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/serve"
	"repro/internal/spec"
	"repro/internal/trace"
)

// serveClients is the closed loop's size: each client submits its next
// job only after the previous one's done event.
const serveClients = 2

// serveBenches are the suite models the serve-jobs mix names.
var serveBenches = []string{"gcc", "li", "espresso", "doduc"}

// serveShape is the serve-jobs job mix. Jobs cycle through the four
// bench names in a seeded order; every fourth job runs on the trace
// uploaded at set-up.
type serveShape struct {
	refs         int
	sizes, lines []uint64
	policies     []string
	jobsPerBatch int
}

func serveJobs(smoke bool) serveShape {
	s := serveShape{
		refs: 1_000_000, sizes: []uint64{4 << 10, 8 << 10, 16 << 10, 32 << 10},
		lines: []uint64{16}, policies: []string{"dm", "de", "lru4"}, jobsPerBatch: 24,
	}
	if smoke {
		s.refs, s.jobsPerBatch = 20_000, 8
	}
	return s
}

// jobSpec is job k of a batch.
func (sh serveShape) jobSpec(k int, names []string, handle string) serve.JobSpec {
	js := serve.JobSpec{Refs: sh.refs, Sizes: sh.sizes, Lines: sh.lines, Policies: sh.policies}
	if k%4 == 3 {
		js.Trace = handle
		return js
	}
	js.Kind = "instr"
	js.Benches = []string{names[(k-k/4)%len(names)]}
	return js
}

// server is one in-process dynex-serve over loopback HTTP with its own
// data directory.
type server struct {
	base    string
	dir     string
	handle  string
	cancel  context.CancelFunc
	runDone chan struct{}
	hs      *http.Server
	hsDone  chan struct{}
}

// startServer brings a server up, waits for /readyz, and uploads the
// trace — all of it set-up.
func startServer(client *http.Client, dir string, traceBytes []byte) (*server, error) {
	srv, err := serve.New(serve.Config{DataDir: dir, MaxActive: 2, Workers: 1})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{base: "http://" + ln.Addr().String(), dir: dir,
		runDone: make(chan struct{}), hs: &http.Server{Handler: srv.Handler()}, hsDone: make(chan struct{})}
	go func() {
		defer close(s.hsDone)
		_ = s.hs.Serve(ln) // returns ErrServerClosed after Shutdown
	}()
	ctx, cancel := context.WithCancel(context.Background())
	s.cancel = cancel
	go func() {
		defer close(s.runDone)
		_ = srv.Run(ctx) // Run always returns nil after draining
	}()
	ready := false
	for i := 0; i < 400 && !ready; i++ {
		if resp, err := client.Get(s.base + "/readyz"); err == nil {
			ready = resp.StatusCode == http.StatusOK
			resp.Body.Close()
		}
		if !ready {
			time.Sleep(5 * time.Millisecond)
		}
	}
	if !ready {
		s.stop()
		return nil, errors.New("serve: server never became ready")
	}
	resp, err := client.Post(s.base+"/v1/traces", "application/octet-stream", bytes.NewReader(traceBytes))
	if err != nil {
		s.stop()
		return nil, err
	}
	defer resp.Body.Close()
	var up struct{ Trace string }
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil || resp.StatusCode != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("serve: trace upload: status %d: %v", resp.StatusCode, err)
	}
	s.handle = up.Trace
	return s, nil
}

// stop drains the server, closes its listener, waits for both
// goroutines, and deletes its data directory.
func (s *server) stop() {
	s.cancel()
	<-s.runDone
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = s.hs.Shutdown(ctx) // no request is in flight by now
	<-s.hsDone
	os.RemoveAll(s.dir)
}

// jobRecord is one job as its client saw it.
type jobRecord struct {
	spec         serve.JobSpec
	id           string
	err          string
	rejected     bool
	admitMS      float64
	firstMS      float64
	doneMS       float64
	cells        []serve.Event
	resultBytes  int64
	failedEvents int
}

// runJob submits job k and follows its result stream to the done event.
func runJob(client *http.Client, base, tenant string, js serve.JobSpec, tr *tracer, unit string) (rec jobRecord) {
	rec.spec = js
	body, err := json.Marshal(js)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	start := time.Now()
	jobSpan := tr.begin("serve.job", 0, unit)
	defer tr.end(jobSpan)
	postSpan := tr.begin("serve.post", jobSpan, unit)
	req, err := http.NewRequest(http.MethodPost, base+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	req.Header.Set("X-Tenant", tenant)
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	rec.admitMS = ms(time.Since(start))
	tr.end(postSpan)
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	var adm struct{ ID string }
	err = json.NewDecoder(resp.Body).Decode(&adm)
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || err != nil {
		rec.rejected = resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable
		rec.err = fmt.Sprintf("submit: status %d", resp.StatusCode)
		return rec
	}
	rec.id = adm.ID

	resSpan := tr.begin("serve.results", jobSpan, unit)
	defer tr.end(resSpan)
	resp, err = client.Get(base + "/v1/jobs/" + rec.id + "/results")
	if err != nil {
		rec.err = err.Error()
		return rec
	}
	defer resp.Body.Close()
	rd := bufio.NewReader(resp.Body)
	rec.firstMS = -1
	for {
		line, err := rd.ReadBytes('\n')
		rec.resultBytes += int64(len(line))
		if len(bytes.TrimSpace(line)) > 0 {
			var ev serve.Event
			if jerr := json.Unmarshal(line, &ev); jerr != nil {
				rec.err = "results: " + jerr.Error()
				return rec
			}
			switch ev.Type {
			case "cell":
				if rec.firstMS < 0 {
					rec.firstMS = ms(time.Since(start))
				}
				rec.cells = append(rec.cells, ev)
			case "cell_error":
				rec.failedEvents++
			case "done":
				rec.doneMS = ms(time.Since(start))
				if ev.State != serve.StateDone {
					rec.err = "job ended " + ev.State + " " + ev.Error
				}
				return rec
			}
		}
		if err != nil {
			rec.err = "results stream ended before done: " + err.Error()
			return rec
		}
	}
}

// runBatch drives one batch of jobs through the closed loop and returns
// the records in job order and the batch's wall time.
func runBatch(client *http.Client, s *server, sh serveShape, names []string, tr *tracer, batch int) ([]jobRecord, time.Duration) {
	recs := make([]jobRecord, sh.jobsPerBatch)
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= sh.jobsPerBatch {
					return
				}
				recs[k] = runJob(client, s.base, fmt.Sprintf("client-%d", c), sh.jobSpec(k, names, s.handle), tr,
					fmt.Sprintf("b%d-job%d", batch, k))
			}
		}(c)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// directCSV runs a job's grid directly — the same grid layer, engine and
// column partition dynex-sweep uses — for comparison with the served
// CSV.
func directCSV(js serve.JobSpec, traceBytes []byte) ([]byte, error) {
	var sources []grid.Source
	kind := js.Kind
	if js.Trace != "" {
		kind = "trace"
		sources = []grid.Source{grid.NewSource(js.Trace, func() ([]trace.Ref, error) {
			fr, err := trace.NewFileReader(bytes.NewReader(traceBytes))
			if err != nil {
				return nil, err
			}
			return trace.Collect(fr, js.Refs)
		})}
	} else {
		var err error
		if sources, err = grid.BenchSources(js.Benches, kind, js.Refs); err != nil {
			return nil, err
		}
	}
	plan, err := grid.Spec{Sources: sources, Kind: kind, Refs: js.Refs,
		Sizes: js.Sizes, Lines: js.Lines, Policies: js.Policies}.Build()
	if err != nil {
		return nil, err
	}
	pending := make([]int, len(plan.Cells))
	for i := range pending {
		pending[i] = i
	}
	results, err := engine.RunGrouped(context.Background(), plan.Cells, plan.Partition(pending, nil), engine.Options{})
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if _, err := plan.WriteCSV(&buf, results); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func getBody(client *http.Client, url string) ([]byte, int, error) {
	resp, err := client.Get(url)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return data, resp.StatusCode, err
}

// promHist accumulates one Prometheus histogram's cumulative buckets
// across scrapes.
type promHist map[float64]float64

// scrape reads /metrics and adds the named histogram's buckets and the
// named counters' values.
func scrape(client *http.Client, base string, hists map[string]promHist, counters map[string]float64) error {
	data, code, err := getBody(client, base+"/metrics")
	if err != nil || code != http.StatusOK {
		return fmt.Errorf("scrape /metrics: status %d: %v", code, err)
	}
	for _, line := range strings.Split(string(data), "\n") {
		fields := strings.Fields(line)
		if len(fields) != 2 || strings.HasPrefix(line, "#") {
			continue
		}
		key, val := fields[0], fields[1]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(key, "{")
		if h, ok := hists[strings.TrimSuffix(name, "_bucket")]; ok && strings.HasSuffix(name, "_bucket") {
			_, le, _ := strings.Cut(labels, `le="`)
			le, _, _ = strings.Cut(le, `"`)
			bound := math.Inf(1)
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					continue
				}
			}
			h[bound] += v
			continue
		}
		if _, ok := counters[name]; ok {
			counters[name] += v
		}
	}
	return nil
}

// quantile interpolates within the bucket holding the q-th observation,
// as Prometheus's histogram_quantile does.
func (h promHist) quantile(q float64) float64 {
	bounds := make([]float64, 0, len(h))
	for b := range h {
		bounds = append(bounds, b)
	}
	sort.Float64s(bounds)
	if len(bounds) == 0 || h[bounds[len(bounds)-1]] == 0 {
		return 0
	}
	target := q * h[bounds[len(bounds)-1]]
	prevB, prevC := 0.0, 0.0
	for _, b := range bounds {
		if c := h[b]; c >= target {
			if math.IsInf(b, 1) {
				return prevB
			}
			if c == prevC {
				return b
			}
			return prevB + (b-prevB)*(target-prevC)/(c-prevC)
		}
		prevB, prevC = b, h[b]
	}
	return prevB
}

// seededTrace is the client side of a trace upload: a mixed stream of
// the seed-shifted gcc model, encoded in the trace file format. Each
// batch's set-up prepares it afresh, as a new client would.
func seededTrace(seed int64, refs int) ([]byte, error) {
	for _, p := range spec.SuiteParams() {
		if p.Name == "gcc" {
			p.Seed += seed
			b, err := spec.Build(p)
			if err != nil {
				return nil, err
			}
			return encodeTrace(b.Mixed(refs))
		}
	}
	return nil, errors.New("no gcc model in the suite")
}

// servedCSV is one job CSV fetched for the reference check.
type servedCSV struct {
	what string
	spec serve.JobSpec
	csv  []byte
}

// runServe runs batches of jobs against a fresh server per batch until
// the budget is spent. Server start, readiness and the trace upload are
// set-up; the batch is timed; afterwards a seeded sample of the batch's
// job CSVs is compared against direct grid runs of the same specs.
func runServe(cfg config) (*outcome, error) {
	o := newOutcome()
	sh := serveJobs(cfg.smoke)
	rng := rand.New(rand.NewSource(cfg.seed))

	// Seeded inputs: the order the four bench names cycle in, and the
	// uploaded trace (see seededTrace). The names themselves are fixed:
	// which four benchmarks a seed picked would change the cost of a
	// batch far more than the load's behaviour.
	var names []string
	for _, i := range rng.Perm(len(serveBenches)) {
		names = append(names, serveBenches[i])
	}
	var (
		traceBytes []byte
		err        error
	)

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2 * serveClients}}
	defer client.CloseIdleConnections()

	var tr *tracer
	ls := newLayerStats()
	if cfg.traced {
		tr = newTracer()
	}
	var setups, walls, lat, first []float64
	var served []servedCSV
	hists := map[string]promHist{"dynex_serve_job_queue_wait_seconds": {}, "dynex_cell_queue_wait_seconds": {}}
	counters := map[string]float64{"dynex_cell_attempts_total": 0, "dynex_cell_retries_total": 0}
	var firstDigest [32]byte
	b := newBudget(cfg)
	for batch := 0; ; batch++ {
		more, traced := b.next()
		if !more {
			break
		}
		runtime.GC() // free the previous batch's streams before this one starts
		ptr := (*tracer)(nil)
		if traced {
			ptr = tr
		}
		t := time.Now()
		traceBytes, err = seededTrace(cfg.seed, sh.refs)
		if err != nil {
			return nil, err
		}
		s, err := startServer(client, filepath.Join(cfg.tmp, fmt.Sprintf("serve-%d", batch)), traceBytes)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		recs, wall := runBatch(client, s, sh, names, ptr, batch)

		// Correctness and bookkeeping, outside the timed window.
		h := sha256.New()
		var accesses, misses, dmMiss, deMiss uint64
		seen := map[string]bool{}
		repeats := 0
		for k, r := range recs {
			o.attempted++
			if r.err != "" || r.failedEvents > 0 {
				o.fail("batch %d job %d: %s (%d cell errors)", batch, k, r.err, r.failedEvents)
				if r.rejected {
					ls.rejected++
				}
				continue
			}
			key := r.spec.Trace + strings.Join(r.spec.Benches, ",")
			if seen[key] {
				repeats++
			}
			seen[key] = true
			if traced {
				ls.admitMS = append(ls.admitMS, r.admitMS)
				ls.resultBytes += r.resultBytes
			} else {
				lat = append(lat, r.doneMS)
				first = append(first, r.firstMS)
			}
			cells := append([]serve.Event(nil), r.cells...)
			sort.Slice(cells, func(i, j int) bool { return cells[i].Index < cells[j].Index })
			for _, ev := range cells {
				fmt.Fprintf(h, "%d %s %d %d\n", k, ev.Label, ev.Misses, ev.Accesses)
				accesses += ev.Accesses
				misses += ev.Misses
				switch {
				case strings.HasSuffix(ev.Label, "/dm"):
					dmMiss += ev.Misses
				case strings.HasSuffix(ev.Label, "/de"):
					deMiss += ev.Misses
				}
			}
			if want := len(sh.sizes) * len(sh.lines) * len(sh.policies); len(cells) != want {
				o.fail("batch %d job %d: %d cells streamed, want %d", batch, k, len(cells), want)
			}
		}
		var digest [32]byte
		copy(digest[:], h.Sum(nil))
		if batch == 0 {
			firstDigest = digest
			ls.accesses, ls.misses, ls.outputDigest = accesses, misses, digest32(digest)
			if dmMiss > 0 {
				ls.deReductionPct = 100 * (1 - float64(deMiss)/float64(dmMiss))
			}
		} else {
			o.attempted++
			if digest != firstDigest {
				o.fail("batch %d: streamed cell results differ from batch 0", batch)
			}
		}
		// One seeded bench job and one trace job per batch; their direct
		// reference runs wait until after the peak RSS is read.
		for _, k := range []int{4*rng.Intn(sh.jobsPerBatch/4) + rng.Intn(3), 4*rng.Intn(sh.jobsPerBatch/4) + 3} {
			r := recs[k]
			if r.id == "" {
				continue
			}
			o.attempted++
			sp := ptr.begin("serve.csv", 0, r.id)
			got, code, err := getBody(client, s.base+"/v1/jobs/"+r.id+"/csv")
			ptr.end(sp)
			if err != nil || code != http.StatusOK {
				o.fail("batch %d job %d csv: status %d: %v", batch, k, code, err)
				continue
			}
			served = append(served, servedCSV{fmt.Sprintf("batch %d job %d", batch, k), r.spec, got})
		}
		if traced {
			ls.passes++
			ls.tracedWall = append(ls.tracedWall, wall.Seconds())
			ls.repeatStreams = float64(repeats) / float64(len(recs))
			o.attempted++
			if err := scrape(client, s.base, hists, counters); err != nil {
				o.fail("%v", err)
			}
		} else {
			walls = append(walls, wall.Seconds())
			if cfg.traced {
				ls.untracedWall = append(ls.untracedWall, wall.Seconds())
			}
		}
		s.stop()
	}
	o.rssMiB = peakRSSMiB()
	direct := map[string][]byte{} // reference CSV per distinct job spec
	for _, c := range served {
		key := c.spec.Trace + strings.Join(c.spec.Benches, ",")
		want, ok := direct[key]
		if !ok {
			if want, err = directCSV(c.spec, traceBytes); err != nil {
				return nil, err
			}
			direct[key] = want
		}
		if !bytes.Equal(c.csv, want) {
			o.fail("%s: served CSV differs from the direct grid run", c.what)
		}
	}
	o.finish(setups, walls, lat, first, ls.modelMetrics())
	o.notes = append(o.notes, fmt.Sprintf("job = one HTTP job (%d per batch, %d closed-loop clients), latency from POST to its done event; wall_s = one batch",
		sh.jobsPerBatch, serveClients))
	if cfg.traced {
		ls.serveQueueS = hists["dynex_serve_job_queue_wait_seconds"].quantile(0.5)
		cq := hists["dynex_cell_queue_wait_seconds"]
		ls.queueWaitQ = &[2]float64{1000 * cq.quantile(0.5), 1000 * cq.quantile(0.9)}
		ls.attempts = int(counters["dynex_cell_attempts_total"])
		ls.retries = int(counters["dynex_cell_retries_total"])
		// Synthesis the job mix asks for: each bench stream once, as the
		// server builds it for every job that names it.
		for _, name := range names {
			b, _ := spec.ByName(name)
			t := time.Now()
			n := len(b.Instr(sh.refs))
			ls.addSynth(time.Since(t), n)
		}
		ls.synthPasses = 1
		ls.addSelf(tr)
		fr, err := trace.NewFileReader(bytes.NewReader(traceBytes))
		if err != nil {
			return nil, err
		}
		traceRefs, err := trace.Collect(fr, sh.refs)
		if err != nil {
			return nil, err
		}
		if err := probeLayers(traceRefs, traceBytes, ls, o); err != nil {
			return nil, err
		}
		o.layer = ls.metrics()
		if err := tr.write(filepath.Join(cfg.root, ".bench_build", fmt.Sprintf("spans-serve-jobs-%d.jsonl", cfg.seed))); err != nil {
			return nil, err
		}
	}
	return o, nil
}
