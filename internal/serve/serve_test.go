package serve

// The service's deterministic load suite: hundreds of concurrent jobs
// from several tenants through a real HTTP stack (httptest), with
// injected transient stream faults and permanent simulator panics, one
// kill-and-restart mid-load plus a manually torn journal tail, and a
// byte-identity check of every job's final CSV against a direct engine
// run of the same grid — the dynex-sweep equivalence the service
// promises. Run under -race by `make race` / CI's serve-smoke job.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/faultinject"
	"repro/internal/trace"
)

// testConfig is the base server tuning for the suite: small delays,
// fault injection enabled.
func testConfig(dir string) Config {
	return Config{
		DataDir:      dir,
		QueueDepth:   400,
		MaxActive:    8,
		TenantActive: 4,
		Workers:      2,
		Retry:        engine.Retry{Attempts: 4, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		DrainGrace:   30 * time.Second,
		Heartbeat:    25 * time.Millisecond,
		EnableFaults: true,
	}
}

// loadJobs builds the suite's deterministic job mix: n jobs across the
// tenants, cycling benchmarks, geometries, and policies, with a
// transient stream fault on every 5th job and an injected simulator
// panic on every 11th.
func loadJobs(n int) []JobSpec {
	benches := [][]string{{"gcc"}, {"li"}, {"spice"}, {"gcc", "li"}}
	kinds := []string{"instr", "data", "mixed"}
	var jobs []JobSpec
	for i := 0; i < n; i++ {
		js := JobSpec{
			Benches:  benches[i%len(benches)],
			Kind:     kinds[i%len(kinds)],
			Refs:     2000 + 500*(i%4),
			Sizes:    []uint64{1024, 4096},
			Lines:    []uint64{4},
			Policies: []string{"dm", "de"},
		}
		if i%5 == 0 {
			js.Inject = "stream-fail=2"
		} else if i%11 == 0 {
			js.Inject = "panic=/dm"
		}
		jobs = append(jobs, js)
	}
	return jobs
}

// directCSV computes a job's ground-truth CSV the way dynex-sweep
// would: shared grid plan, same fault injection, same engine options,
// no service in between.
func directCSV(t *testing.T, cfg Config, st *store, js JobSpec) []byte {
	t.Helper()
	gs, err := js.gridSpec(st)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := gs.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults, err := faultinject.ParseDirective(js.Inject)
	if err != nil {
		t.Fatal(err)
	}
	faults.Apply(&plan)
	results, err := engine.Run(context.Background(), plan.Cells, engine.Options{
		Workers: cfg.Workers, Retry: cfg.Retry, CellTimeout: cfg.CellTimeout,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := plan.WriteCSV(&buf, results); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func postJob(t *testing.T, url, tenant string, js JobSpec) (id string, code int) {
	t.Helper()
	body, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest("POST", url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("X-Tenant", tenant)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		ID    string `json:"id"`
		Error string `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out.ID, resp.StatusCode
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("GET %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// midJournal reports whether some running job has journaled part, but
// not all, of its grid.
func midJournal(s *Server, ids []string) bool {
	for _, id := range ids {
		j := s.getJob(id)
		if j == nil || j.state() != StateRunning {
			continue
		}
		if done, total := j.progress(); done == 0 || done == total {
			continue
		}
		if fi, err := os.Stat(s.st.journalPath(id)); err == nil && fi.Size() > 0 {
			return true
		}
	}
	return false
}

// TestServeLoadKillRestart is the headline robustness test: ≥200
// concurrent jobs from 3 tenants with injected faults, a hard kill
// mid-load plus one manually torn journal tail, a restart that resumes
// everything, and byte-identical CSVs for every single job.
func TestServeLoadKillRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	dir := t.TempDir()
	cfg := testConfig(dir)
	tenants := []string{"alice", "bob", "carol"}
	jobs := loadJobs(210)

	s1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx1, cancel1 := context.WithCancel(context.Background())
	runDone1 := make(chan struct{})
	go func() { defer close(runDone1); _ = s1.Run(ctx1) }()
	ts1 := httptest.NewServer(s1.Handler())

	// Submit every job concurrently — the admission path itself is part
	// of what runs under -race.
	ids := make([]string, len(jobs))
	var wg sync.WaitGroup
	for i := range jobs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id, code := postJob(t, ts1.URL, tenants[i%len(tenants)], jobs[i])
			if code != http.StatusAccepted {
				t.Errorf("job %d: status %d", i, code)
				return
			}
			ids[i] = id
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	// Let part of the load complete, then kill the server cold at a
	// moment some running job has journaled part of its grid, so the
	// kill interrupts progress the restart must resume.
	deadline := time.Now().Add(60 * time.Second)
	for (s1.obsm.jobsDone.Value() < 40 || !midJournal(s1, ids)) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if got := s1.obsm.jobsDone.Value(); got < 40 {
		t.Fatalf("only %d jobs done before kill deadline", got)
	}
	s1.Kill()
	ts1.Close()
	cancel1()
	<-runDone1

	// Tear one interrupted job's journal mid-record — the crash landed
	// inside a write. Resume must drop the torn tail and re-run only
	// that cell.
	st := s1.st
	torn := ""
	for _, id := range ids {
		j := s1.getJob(id)
		if j == nil || terminal(j.state()) {
			continue
		}
		data, err := os.ReadFile(st.journalPath(id))
		if err != nil || len(bytes.TrimSpace(data)) == 0 {
			continue
		}
		lines := bytes.Split(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
		cut := len(data) - len(lines[len(lines)-1])/2 - 1
		if err := os.Truncate(st.journalPath(id), int64(cut)); err != nil {
			t.Fatal(err)
		}
		torn = id
		break
	}
	if torn == "" {
		t.Log("no interrupted journal to tear (kill landed between jobs); torn-tail path covered by faultinject suite")
	}

	// Restart over the same data directory: recovery re-enqueues the
	// interrupted jobs and their journals turn re-runs into resumes.
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s2.obsm.jobsResumed.Value() == 0 {
		t.Error("restart resumed no jobs; the kill should have interrupted some")
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	runDone2 := make(chan struct{})
	go func() { defer close(runDone2); _ = s2.Run(ctx2) }()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() {
		ts2.Close()
		cancel2()
		<-runDone2
	}()

	// Wait for the whole load to reach terminal states.
	deadline = time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		allDone := true
		for _, id := range ids {
			var stt Status
			if getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt) != http.StatusOK {
				t.Fatalf("job %s vanished after restart", id)
			}
			if !terminal(stt.State) {
				allDone = false
				break
			}
		}
		if allDone {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Every job: terminal, and its CSV byte-identical to the direct run.
	for i, id := range ids {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt)
		if stt.State != StateDone {
			t.Errorf("job %s (%d): state %s, err %q", id, i, stt.State, stt.Error)
			continue
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/csv")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("job %s: csv status %d: %s", id, resp.StatusCode, got)
			continue
		}
		want := directCSV(t, cfg, st, jobs[i])
		if !bytes.Equal(got, want) {
			t.Errorf("job %s (%d): CSV differs from direct run\n--- got\n%s--- want\n%s", id, i, got, want)
		}
		rows := strings.Count(string(want), "\n") - 1
		cells := len(jobs[i].Benches) * len(jobs[i].Sizes) * len(jobs[i].Lines) * len(jobs[i].Policies)
		if stt.FailedCells != cells-rows {
			t.Errorf("job %s: FailedCells = %d, want %d", id, stt.FailedCells, cells-rows)
		}
	}
	if torn != "" {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+torn, &stt)
		if stt.Resumed == 0 {
			t.Errorf("torn job %s resumed no cells", torn)
		}
	}
	if s2.obsm.cellsResumed.Value() == 0 {
		t.Error("restart replayed no journaled cells; resume did not engage")
	}
}

// TestServeBackpressure pins the 429 contract: with the queue full,
// admission refuses with Retry-After instead of buffering, and readyz
// flips not-ready.
func TestServeBackpressure(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.QueueDepth = 2
	cfg.MaxActive = 1
	cfg.TenantActive = 1
	release := make(chan struct{})
	started := make(chan string, 16)
	cfg.BeforeJob = func(id string) { started <- id; <-release }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	js := loadJobs(1)[0]
	js.Inject = ""
	// One running (held in BeforeJob), two queued, then overflow.
	if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusAccepted {
		t.Fatalf("first job: %d", code)
	}
	<-started
	for i := 0; i < 2; i++ {
		if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusAccepted {
			t.Fatalf("queued job %d: %d", i, code)
		}
	}
	req, err := http.NewRequest("POST", ts.URL+"/v1/jobs", strings.NewReader(mustJSON(t, js)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("overflow admission = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while backlogged = %d, want 503", code)
	}
	if n := s.obsm.rejected.WithLabelValues("anon", rejectBackpressure).Value(); n != 1 {
		t.Errorf("backpressure rejections = %d, want 1", n)
	}
	if code := getJSON(t, ts.URL+"/healthz", nil); code != http.StatusOK {
		t.Errorf("healthz = %d, want 200 (liveness is not readiness)", code)
	}

	close(release)
	waitAllTerminal(t, ts.URL, 30*time.Second)
}

// TestServeDrainZeroLoss pins graceful drain: running jobs cancelled by
// an expired grace window stay resumable, nothing is lost, and — via
// the journal's raw line count — nothing is simulated twice.
func TestServeDrainZeroLoss(t *testing.T) {
	dir := t.TempDir()
	cfg := testConfig(dir)
	cfg.MaxActive = 2
	cfg.DrainGrace = 20 * time.Millisecond
	started := make(chan string, 16)
	cfg.BeforeJob = func(id string) { started <- id }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())

	// Long jobs, so the drain catches them mid-run.
	js := JobSpec{
		Benches: []string{"gcc"}, Kind: "instr", Refs: 2_000_000,
		Sizes: []uint64{1024, 2048, 4096, 8192}, Lines: []uint64{4},
		Policies: []string{"dm", "de", "lru"},
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, code := postJob(t, ts.URL, fmt.Sprintf("t%d", i), js)
		if code != http.StatusAccepted {
			t.Fatalf("job %d: %d", i, code)
		}
		ids = append(ids, id)
	}
	<-started
	<-started

	// SIGTERM: drain with a grace window far shorter than the jobs.
	cancel()
	<-done
	if d := s.obsm.drain.Value(); d <= 0 {
		t.Error("drain time not recorded")
	}

	// While draining/stopped, admission must refuse with 503.
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(mustJSON(t, js)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("admission while draining = %d, want 503", resp.StatusCode)
	}
	if code := getJSON(t, ts.URL+"/readyz", nil); code != http.StatusServiceUnavailable {
		t.Errorf("readyz while draining = %d, want 503", code)
	}
	ts.Close()

	// Restart: everything resumes and completes; journals hold each cell
	// exactly once (raw line count == unique fingerprints == grid size).
	cfg.BeforeJob = nil
	s2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx2, cancel2 := context.WithCancel(context.Background())
	done2 := make(chan struct{})
	go func() { defer close(done2); _ = s2.Run(ctx2) }()
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); cancel2(); <-done2 }()
	waitAllTerminal(t, ts2.URL, 120*time.Second)

	want := directCSV(t, cfg, s2.st, js)
	totalCells := len(js.Benches) * len(js.Sizes) * len(js.Lines) * len(js.Policies)
	for _, id := range ids {
		var stt Status
		getJSON(t, ts2.URL+"/v1/jobs/"+id, &stt)
		if stt.State != StateDone {
			t.Errorf("job %s: state %s after drain+restart", id, stt.State)
			continue
		}
		resp, err := http.Get(ts2.URL + "/v1/jobs/" + id + "/csv")
		if err != nil {
			t.Fatal(err)
		}
		got, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if !bytes.Equal(got, want) {
			t.Errorf("job %s: drained+resumed CSV differs from direct run", id)
		}
		data, err := os.ReadFile(s2.st.journalPath(id))
		if err != nil {
			t.Fatal(err)
		}
		if lines := bytes.Count(data, []byte("\n")); lines != totalCells {
			t.Errorf("job %s: journal has %d lines for %d cells (lost or duplicated work)", id, lines, totalCells)
		}
	}
}

// TestServeStreamAndCancel covers the streaming surface: heartbeats
// while idle, per-cell events, the terminal marker, SSE framing, and
// client cancellation of queued and running jobs.
func TestServeStreamAndCancel(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxActive = 1
	cfg.TenantActive = 1
	release := make(chan struct{})
	started := make(chan string, 4)
	cfg.BeforeJob = func(id string) { started <- id; <-release }

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	js := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 2000,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	running, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	queued, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatal(code)
	}
	<-started

	// Cancel the queued job: it must go terminal without running.
	req, err := http.NewRequest("DELETE", ts.URL+"/v1/jobs/"+queued, nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	var stt Status
	if err := json.NewDecoder(resp.Body).Decode(&stt); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stt.State != StateCancelled {
		t.Errorf("cancelled queued job state = %s", stt.State)
	}

	// Stream the running job: a heartbeat arrives while it is held, then
	// cells, then the done marker.
	streamResp, err := http.Get(ts.URL + "/v1/jobs/" + running + "/results")
	if err != nil {
		t.Fatal(err)
	}
	defer streamResp.Body.Close()
	if ct := streamResp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("stream content type %q", ct)
	}
	dec := json.NewDecoder(streamResp.Body)
	var ev Event
	if err := dec.Decode(&ev); err != nil {
		t.Fatal(err)
	}
	if ev.Type != "heartbeat" {
		t.Errorf("first stream event %q, want heartbeat (job is held)", ev.Type)
	}
	close(release)
	var cells int
	var finalReport []byte
	for {
		if err := dec.Decode(&ev); err != nil {
			t.Fatalf("stream ended early: %v", err)
		}
		switch ev.Type {
		case "cell":
			cells++
			if ev.MissRate == "" || ev.Accesses == 0 {
				t.Errorf("cell event missing payload: %+v", ev)
			}
		case "report-delta":
			if len(ev.Report) == 0 {
				t.Errorf("report-delta without a report payload: %+v", ev)
			}
			if ev.Final {
				finalReport = append([]byte(nil), ev.Report...)
			}
		case "done":
			if cells != 2 {
				t.Errorf("streamed %d cells, want 2", cells)
			}
			if ev.State != StateDone {
				t.Errorf("done event state %s", ev.State)
			}
			if finalReport == nil {
				t.Error("stream finished without a final report-delta frame")
			}
			goto sse
		case "heartbeat": // allowed between cells
		default:
			t.Errorf("unexpected event %+v", ev)
		}
	}
sse:
	// The finished stream replays in SSE framing too.
	req, err = http.NewRequest("GET", ts.URL+"/v1/jobs/"+running+"/results", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Errorf("SSE content type %q", ct)
	}
	if !strings.HasPrefix(string(body), "data: ") {
		t.Errorf("SSE framing missing:\n%s", body)
	}

	// The job report is a RunReport JSON, and the stream's final
	// report-delta frame is pinned to it: compacting the endpoint's
	// indented body must reproduce the frame's bytes exactly.
	reportResp, err := http.Get(ts.URL + "/v1/jobs/" + running + "/report")
	if err != nil {
		t.Fatal(err)
	}
	reportBody, _ := io.ReadAll(reportResp.Body)
	reportResp.Body.Close()
	if reportResp.StatusCode != http.StatusOK {
		t.Fatalf("report status %d", reportResp.StatusCode)
	}
	var report map[string]any
	if err := json.Unmarshal(reportBody, &report); err != nil {
		t.Fatalf("report is not JSON: %v", err)
	}
	if report["schema"] == nil {
		t.Error("report missing schema field")
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, reportBody); err != nil {
		t.Fatal(err)
	}
	if finalReport != nil && !bytes.Equal(compact.Bytes(), finalReport) {
		t.Errorf("final report-delta frame diverges from the report endpoint:\nframe:    %s\nendpoint: %s",
			finalReport, compact.Bytes())
	}
}

// TestServeTraceUploadJob runs a job over an uploaded trace and checks
// the CSV matches a direct run over the same bytes.
func TestServeTraceUploadJob(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%97) * 4, Kind: trace.Instr}
	}

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(encodeTrace(t, refs)))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !strings.HasPrefix(up.Trace, "trace:") {
		t.Fatalf("upload handle %q", up.Trace)
	}

	js := JobSpec{Trace: up.Trace, Refs: 4096,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("trace job: %d", code)
	}
	waitAllTerminal(t, ts.URL, 30*time.Second)

	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	want := directCSV(t, cfg, s.st, js)
	if !bytes.Equal(got, want) {
		t.Errorf("trace job CSV differs:\n--- got\n%s--- want\n%s", got, want)
	}
	if !strings.Contains(string(got), up.Trace+",trace,") {
		t.Errorf("CSV benchmark column should carry the trace handle:\n%s", got)
	}
}

// TestServeTornTraceReupload pins the trace store's durability: a torn
// traces/<digest>.trace left behind by a crash is not accepted as the
// upload of the same digest. Re-uploading the full bytes repairs the
// file, and a job over the trace completes with the ground-truth CSV.
func TestServeTornTraceReupload(t *testing.T) {
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%97) * 40961, Kind: trace.Instr}
	}
	full := encodeTrace(t, refs)
	sum := sha256.Sum256(full)
	digest := hex.EncodeToString(sum[:])[:16]

	cfg := testConfig(t.TempDir())
	path := filepath.Join(cfg.DataDir, "traces", digest+".trace")
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, full[:len(full)/2+1], 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(full))
	if err != nil {
		t.Fatal(err)
	}
	var up struct {
		Trace string `json:"trace"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if up.Trace != "trace:"+digest {
		t.Fatalf("upload handle %q, want trace:%s", up.Trace, digest)
	}
	if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, full) {
		t.Fatalf("stored trace: %d bytes (err %v), want the %d uploaded bytes", len(onDisk), err, len(full))
	}

	js := JobSpec{Trace: up.Trace, Refs: 4096,
		Sizes: []uint64{1024, 2048}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("trace job: %d", code)
	}
	waitAllTerminal(t, ts.URL, 30*time.Second)
	var stt Status
	getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
	if stt.State != StateDone {
		t.Fatalf("job state %s, err %q", stt.State, stt.Error)
	}
	resp, err = http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := directCSV(t, cfg, s.st, js); !bytes.Equal(got, want) {
		t.Errorf("trace job CSV differs:\n--- got\n%s--- want\n%s", got, want)
	}
}

// encodeTrace returns the trace-file encoding of refs.
func encodeTrace(t *testing.T, refs []trace.Ref) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := trace.NewWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		if err := w.Write(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestServeTruncatedTraceRejected pins the read-side digest check: a
// stored trace torn at a record boundary decodes cleanly as a shorter
// stream, so only re-hashing it catches the damage. Admission refuses a
// job over it with 400, and a job admitted before the damage fails its
// cells instead of serving a CSV simulated over too few references.
func TestServeTruncatedTraceRejected(t *testing.T) {
	refs := make([]trace.Ref, 4096)
	for i := range refs {
		refs[i] = trace.Ref{Addr: uint64(i%89) * 4, Kind: trace.Instr}
	}
	full := encodeTrace(t, refs)
	torn := encodeTrace(t, refs[:len(refs)-1])
	if !bytes.HasPrefix(full, torn) {
		t.Fatal("N-1 reference encoding is not a byte prefix of the N reference one")
	}
	fr, err := trace.NewFileReader(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if got, err := trace.Collect(fr, 0); err != nil || len(got) != len(refs)-1 {
		t.Fatalf("torn trace decodes to %d refs (err %v), want a clean %d", len(got), err, len(refs)-1)
	}

	cfg := testConfig(t.TempDir())
	cfg.EnableFaults = false
	release := make(chan struct{})
	cfg.BeforeJob = func(string) { <-release }
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	upload := func() string {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/traces", "application/octet-stream", bytes.NewReader(full))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var up struct {
			Trace string `json:"trace"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&up); err != nil {
			t.Fatal(err)
		}
		return up.Trace
	}
	handle := upload()
	path := filepath.Join(cfg.DataDir, "traces", strings.TrimPrefix(handle, "trace:")+".trace")
	tear := func() {
		t.Helper()
		if err := os.WriteFile(path, torn, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	js := JobSpec{Trace: handle, Refs: len(refs),
		Sizes: []uint64{1024, 2048}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}

	// Torn before admission: refused, and the error names the trace.
	tear()
	body, err := json.Marshal(js)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	msg, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), "corrupt") {
		t.Errorf("job over a torn trace: %d %s, want 400 naming the trace corrupt", resp.StatusCode, msg)
	}

	// Torn after admission: the run reads the trace again and every
	// cell fails, so no row is simulated over the short stream.
	if upload() != handle {
		t.Fatal("re-upload changed the handle")
	}
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("job over a repaired trace: %d", code)
	}
	tear()
	close(release)
	waitAllTerminal(t, ts.URL, 30*time.Second)
	var stt Status
	getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
	if stt.FailedCells != stt.Total || stt.Total != 4 {
		t.Errorf("job over a trace torn after admission: state %s, %d of %d cells failed; want all 4",
			stt.State, stt.FailedCells, stt.Total)
	}
}

// TestServeValidation pins the graceful-degradation refusals.
func TestServeValidation(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.MaxRefs = 10_000
	cfg.MaxCells = 8
	cfg.EnableFaults = false
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	ok := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 1000,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm"}}
	cases := []struct {
		name   string
		mutate func(*JobSpec)
	}{
		{"no source", func(j *JobSpec) { j.Benches = nil }},
		{"unknown bench", func(j *JobSpec) { j.Benches = []string{"nope"} }},
		{"bad policy", func(j *JobSpec) { j.Policies = []string{"wat:x=1"} }},
		{"bad kind", func(j *JobSpec) { j.Kind = "bogus" }},
		{"refs cap", func(j *JobSpec) { j.Refs = 1_000_000 }},
		{"cell cap", func(j *JobSpec) {
			j.Sizes = []uint64{1 << 10, 2 << 10, 4 << 10, 8 << 10, 16 << 10, 32 << 10, 64 << 10, 128 << 10, 256 << 10}
		}},
		{"bad geometry", func(j *JobSpec) { j.Sizes = []uint64{3000} }},
		{"faults disabled", func(j *JobSpec) { j.Inject = "stream-fail=1" }},
		{"unknown trace", func(j *JobSpec) { j.Benches = nil; j.Trace = "trace:deadbeef00000000" }},
	}
	for _, tc := range cases {
		js := ok
		tc.mutate(&js)
		if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	if n := s.obsm.rejected.WithLabelValues("alice", rejectValidation).Value(); n != uint64(len(cases)) {
		t.Errorf("validation rejections = %d, want %d", n, len(cases))
	}
	if _, code := postJob(t, ts.URL, "alice", ok); code != http.StatusAccepted {
		t.Errorf("valid job refused")
	}
	if code := getJSON(t, ts.URL+"/v1/jobs/zzz", nil); code != http.StatusNotFound {
		t.Errorf("unknown job status = %d, want 404", code)
	}
}

// TestQueueFairness pins round-robin dispatch: a tenant flooding the
// queue cannot starve another tenant's single job.
func TestQueueFairness(t *testing.T) {
	q := newQueue(100, 2, 1)
	mkJob := func(tenant, id string) *job {
		return &job{m: Manifest{ID: id, Tenant: tenant, State: StateQueued}}
	}
	for i := 0; i < 10; i++ {
		if !q.push(mkJob("flood", fmt.Sprintf("f%02d", i))) {
			t.Fatal("push refused below capacity")
		}
	}
	if !q.push(mkJob("quiet", "q0")) {
		t.Fatal("push refused below capacity")
	}
	first := q.next()
	second := q.next()
	tenants := map[string]bool{
		first.manifest().Tenant:  true,
		second.manifest().Tenant: true,
	}
	if !tenants["quiet"] {
		t.Errorf("first two dispatches %v; round-robin should reach the quiet tenant", tenants)
	}
	// With per-tenant quota 1 and both slots claimable, a third dispatch
	// must wait until a slot frees.
	q.release(first.manifest().Tenant)
	if j := q.next(); j == nil {
		t.Fatal("dispatch after release returned nil")
	}
}

// mustJSON marshals v for request bodies.
func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// waitAllTerminal polls the job list until every job is terminal.
func waitAllTerminal(t *testing.T, url string, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		var out struct{ Jobs []Status }
		getJSON(t, url+"/v1/jobs", &out)
		all := true
		for _, j := range out.Jobs {
			if !terminal(j.State) {
				all = false
				break
			}
		}
		if all {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("jobs did not reach terminal states in time")
}

// TestServeMultisimModes pins the job runner's column partitioning: a
// power-of-two sweep job, whose size columns the runner retires on
// single-pass kernels, produces CSV byte-identical to the direct engine
// ground truth (engine.Run with no groups, so every cell runs alone).
func TestServeMultisimModes(t *testing.T) {
	js := JobSpec{
		Benches:  []string{"gcc"},
		Kind:     "instr",
		Refs:     4000,
		Sizes:    []uint64{1024, 2048, 4096, 8192},
		Lines:    []uint64{4, 16},
		Policies: []string{"dm", "de", "lru", "fifo", "de:store=hashed*4"},
	}
	cfg := testConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ts.Close()
		cancel()
		<-done
	}()

	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	deadline := time.Now().Add(60 * time.Second)
	var stt Status
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
		if terminal(stt.State) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if stt.State != StateDone {
		t.Fatalf("job state %s, err %q", stt.State, stt.Error)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := directCSV(t, cfg, s.st, js); !bytes.Equal(got, want) {
		t.Errorf("served CSV differs from direct engine run:\n--- got\n%s--- want\n%s", got, want)
	}
}

// TestServeInjectPanicReachesDirectCells pins the one fault directive:
// panic=/opt fails opt's Direct (whole-stream) cells as well as Policy
// cells, so the job withholds both opt rows — the CSV dynex-sweep
// -inject panic=/opt writes for the same grid.
func TestServeInjectPanicReachesDirectCells(t *testing.T) {
	cfg := testConfig(t.TempDir())
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	clean := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 4000,
		Sizes: []uint64{4096, 8192}, Lines: []uint64{4}, Policies: []string{"dm", "opt"}}
	js := clean
	js.Inject = "panic=/opt"
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("status %d", code)
	}
	waitAllTerminal(t, ts.URL, 30*time.Second)
	var stt Status
	getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
	if stt.State != StateDone || stt.FailedCells != 2 {
		t.Fatalf("job state %s with %d failed cells, want done with the 2 opt cells failed", stt.State, stt.FailedCells)
	}
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
	if err != nil {
		t.Fatal(err)
	}
	got, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if want := directCSV(t, cfg, s.st, js); !bytes.Equal(got, want) {
		t.Errorf("served CSV differs from the direct run:\n--- got\n%s--- want\n%s", got, want)
	}
	// The sweep's partial-failure CSV: the clean grid's rows, opt's
	// withheld.
	var want bytes.Buffer
	for _, line := range strings.SplitAfter(string(directCSV(t, cfg, s.st, clean)), "\n") {
		if !strings.Contains(line, ",opt,") {
			want.WriteString(line)
		}
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Errorf("served CSV is not the clean CSV minus its opt rows:\n--- got\n%s--- want\n%s", got, want.Bytes())
	}
}

// TestServeInjectRejectsTrailingInput: admission runs the sweep's
// -inject parser, which refuses trailing input, even on a server that
// allows fault injection.
func TestServeInjectRejectsTrailingInput(t *testing.T) {
	s, err := New(testConfig(t.TempDir()))
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	js := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 1000,
		Sizes: []uint64{1024}, Lines: []uint64{4}, Policies: []string{"dm"}}
	for _, bad := range []string{"stream-fail=2abc", "stream-fail=2 ", "stream-fail=0", "panic=", "wat"} {
		js.Inject = bad
		if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusBadRequest {
			t.Errorf("inject %q: status %d, want 400", bad, code)
		}
	}
	js.Inject = "stream-fail=2"
	if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusAccepted {
		t.Errorf("inject %q: status %d, want 202", js.Inject, code)
	}
}
