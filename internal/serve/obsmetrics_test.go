package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestServeMetricsScrape pins the service's one live counter surface:
// after one job runs to done, one admission overflows the queue and one
// fails validation, GET /metrics reports exactly those events, and
// /debug/vars carries only the Go runtime's default vars.
func TestServeMetricsScrape(t *testing.T) {
	cfg := testConfig(t.TempDir())
	cfg.QueueDepth = 1
	cfg.MaxActive = 1
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	js := JobSpec{Benches: []string{"gcc"}, Kind: "instr", Refs: 2000,
		Sizes: []uint64{1024, 4096}, Lines: []uint64{4}, Policies: []string{"dm", "de"}}
	// The dispatcher is not running yet, so the first job fills the
	// depth-1 queue and the second overflows it.
	id, code := postJob(t, ts.URL, "alice", js)
	if code != http.StatusAccepted {
		t.Fatalf("first job: %d", code)
	}
	if _, code := postJob(t, ts.URL, "alice", js); code != http.StatusTooManyRequests {
		t.Fatalf("overflow job: %d, want 429", code)
	}
	bad := js
	bad.Policies = []string{"wat:x=1"}
	if _, code := postJob(t, ts.URL, "alice", bad); code != http.StatusBadRequest {
		t.Fatalf("invalid job: %d, want 400", code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	deadline := time.Now().Add(30 * time.Second)
	var stt Status
	for time.Now().Before(deadline) {
		getJSON(t, ts.URL+"/v1/jobs/"+id, &stt)
		if terminal(stt.State) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	// Drain before scraping: the runner books jobs_done just after the
	// state flips, and Run returns only once every runner has finished.
	cancel()
	<-done
	if stt.State != StateDone || stt.Total != 4 {
		t.Fatalf("job state %s with %d cells (err %q), want done with 4", stt.State, stt.Total, stt.Error)
	}

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d, err %v", path, resp.StatusCode, err)
		}
		return string(body)
	}
	metrics := get("/metrics")
	for _, want := range []string{
		MetricJobsAdmitted + `{tenant="alice"} 1`,
		MetricJobsRejected + `{tenant="alice",reason="backpressure"} 1`,
		MetricJobsRejected + `{tenant="alice",reason="validation"} 1`,
		MetricJobsDone + " 1",
		fmt.Sprintf("%s %d", MetricCellsCompleted, stt.Total),
	} {
		if !strings.Contains(metrics, "\n"+want+"\n") {
			t.Errorf("/metrics missing %q:\n%s", want, metrics)
		}
	}

	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Fatalf("/debug/vars: %v", err)
	}
	if _, ok := vars["dynex.serve"]; ok {
		t.Error(`/debug/vars still publishes "dynex.serve"`)
	}
	if _, ok := vars["memstats"]; !ok {
		t.Error(`/debug/vars lost the runtime's "memstats"`)
	}
}
