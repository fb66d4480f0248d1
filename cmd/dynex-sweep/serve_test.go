package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/checkpoint"
	"repro/internal/engine"
	"repro/internal/serve"
)

// TestSweepInjectMatchesServe is the one-directive contract end to end:
// a dynex-serve job carrying an inject directive produces the CSV and
// the journal (wall times aside) of dynex-sweep -inject over the same
// grid — withheld opt rows under panic=/opt included.
func TestSweepInjectMatchesServe(t *testing.T) {
	grid := []string{"-bench", "gcc", "-kind", "instr", "-refs", "6000",
		"-sizes", "4096,8192", "-lines", "4", "-policies", "dm,opt", "-workers", "1"}
	spec := map[string]any{"benches": []string{"gcc"}, "kind": "instr", "refs": 6000,
		"sizes": []int{4096, 8192}, "lines": []int{4}, "policies": []string{"dm", "opt"}}

	dir := t.TempDir()
	s, err := serve.New(serve.Config{DataDir: filepath.Join(dir, "serve"), EnableFaults: true,
		Retry: engine.Retry{Attempts: 3, BaseDelay: time.Millisecond}})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { defer close(done); _ = s.Run(ctx) }()
	ts := httptest.NewServer(s.Handler())
	defer func() { ts.Close(); cancel(); <-done }()

	for _, tc := range []struct {
		inject    string
		sweepArgs []string
		failed    int
	}{
		{"panic=/opt", nil, 2},
		{"stream-fail=1", []string{"-retries", "2"}, 0},
	} {
		ckpt := filepath.Join(dir, strings.ReplaceAll(tc.inject, "/", "_")+".jsonl")
		args := append(append(append([]string{}, grid...), tc.sweepArgs...), "-inject", tc.inject, "-checkpoint", ckpt)
		wantCSV, _, err := runSweep(t, args...)
		if (err != nil) != (tc.failed > 0) {
			t.Fatalf("%s: sweep err = %v, want %d failed cells", tc.inject, err, tc.failed)
		}

		spec["inject"] = tc.inject
		id, stt := submitAndWait(t, ts.URL, spec)
		if stt.State != serve.StateDone || stt.FailedCells != tc.failed {
			t.Fatalf("%s: job %s state %s with %d failed cells, want done with %d",
				tc.inject, id, stt.State, stt.FailedCells, tc.failed)
		}
		resp, err := http.Get(ts.URL + "/v1/jobs/" + id + "/csv")
		if err != nil {
			t.Fatal(err)
		}
		gotCSV, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if string(gotCSV) != wantCSV {
			t.Errorf("%s: served CSV differs from the sweep's:\n--- serve\n%s--- sweep\n%s", tc.inject, gotCSV, wantCSV)
		}
		served := normJournal(t, filepath.Join(dir, "serve", "jobs", id, "cells.jsonl"))
		if swept := normJournal(t, ckpt); served != swept {
			t.Errorf("%s: served journal differs from the sweep's:\n--- serve\n%s\n--- sweep\n%s", tc.inject, served, swept)
		}
	}
}

// submitAndWait posts one job and polls it to a terminal state.
func submitAndWait(t *testing.T, url string, spec map[string]any) (string, serve.Status) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var sub serve.Status
	err = json.NewDecoder(resp.Body).Decode(&sub)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d, err %v", resp.StatusCode, err)
	}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
		var stt serve.Status
		resp, err := http.Get(url + "/v1/jobs/" + sub.ID)
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&stt)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if stt.State == serve.StateDone || stt.State == serve.StateFailed || stt.State == serve.StateCancelled {
			return sub.ID, stt
		}
	}
	t.Fatalf("job %s did not finish", sub.ID)
	return "", serve.Status{}
}

// normJournal renders a journal order- and wall-time-independently:
// one record per line, wall_ns dropped, sorted by fingerprint.
func normJournal(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec checkpoint.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		rec.WallNS = 0
		b, _ := json.Marshal(rec)
		lines = append(lines, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}
