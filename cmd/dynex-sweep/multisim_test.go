package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// normalizeJournal parses a checkpoint journal and returns its records
// with the wall-clock field zeroed and the lines sorted: everything a
// journal promises (fingerprints, labels, stats, attempts) must match
// across execution strategies; wall time and completion order may not.
func normalizeJournal(t *testing.T, path string) string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var lines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec map[string]any
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		delete(rec, "wall_ns")
		b, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(b))
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestSweepMultisimByteIdentity is the column-vs-reference check at the
// CLI surface: the full policy registry over a power-of-two size grid
// produces byte-identical CSV by default (size columns on single-pass
// kernels) and under -scalar (no columns, one Access per reference), and
// the checkpoint journals record the same cells, fingerprints, and stats
// (order and wall time are the only permitted differences).
func TestSweepMultisimByteIdentity(t *testing.T) {
	out, _, err := runSweep(t, "-list-policies")
	if err != nil {
		t.Fatalf("-list-policies: %v", err)
	}
	policies := strings.Join(strings.Fields(out), ",")
	dir := t.TempDir()
	jCol := filepath.Join(dir, "default.jsonl")
	jRef := filepath.Join(dir, "scalar.jsonl")
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192,16384,32768",
		"-lines", "4,16", "-policies", policies}

	col, _, err := runSweep(t, append(args, "-checkpoint", jCol)...)
	if err != nil {
		t.Fatalf("default run: %v", err)
	}
	ref, _, err := runSweep(t, append(args, "-scalar", "-checkpoint", jRef)...)
	if err != nil {
		t.Fatalf("-scalar run: %v", err)
	}
	if col != ref {
		t.Errorf("default CSV differs from -scalar:\n--- default\n%s--- scalar\n%s", col, ref)
	}
	if a, b := normalizeJournal(t, jCol), normalizeJournal(t, jRef); a != b {
		t.Errorf("journals differ between default and -scalar:\n--- default\n%s\n--- scalar\n%s", a, b)
	}
}

// TestSweepMultisimFlag pins that -scalar, which forms no columns, runs
// a multi-size grid (one the default run would partition into columns).
func TestSweepMultisimFlag(t *testing.T) {
	if _, _, err := runSweep(t, "-bench", "gcc", "-refs", "1000", "-sizes", "4096,8192",
		"-policies", "dm", "-scalar"); err != nil {
		t.Errorf("-scalar on a multi-size grid: %v", err)
	}
}

// TestSweepMultisimResumeAcrossModes checks the checkpoint journal is
// strategy-blind: a journal written under -scalar resumes by default
// (with columns) and one written by default resumes under -scalar, with
// CSV byte-identical to an uninterrupted run.
func TestSweepMultisimResumeAcrossModes(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-lines", "4",
		"-policies", "dm,de,lru,fifo,opt"}
	full := append([]string{"-sizes", "4096,8192,16384"}, base...)

	want, _, err := runSweep(t, full...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	for _, swtch := range []struct {
		name          string
		write, resume []string
	}{
		{"scalar->default", []string{"-scalar"}, nil},
		{"default->scalar", nil, []string{"-scalar"}},
	} {
		ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
		// Journal part of the grid one way (one size: no column has two
		// members, so the default run still writes cell-shaped records)...
		partial := append(append([]string{"-sizes", "4096", "-checkpoint", ckpt}, swtch.write...), base...)
		if _, _, err := runSweep(t, partial...); err != nil {
			t.Fatalf("%s: partial run: %v", swtch.name, err)
		}
		// ...and resume the rest the other way.
		got, stderr, err := runSweep(t, append(append(full, "-checkpoint", ckpt), swtch.resume...)...)
		if err != nil {
			t.Fatalf("%s: resume: %v\nstderr: %s", swtch.name, err, stderr)
		}
		if !strings.Contains(stderr, "resuming: 5 of 15 cells journaled") {
			t.Errorf("%s: stderr = %q, want a 5-of-15 resume banner", swtch.name, stderr)
		}
		if got != want {
			t.Errorf("%s: resumed CSV differs from uninterrupted run", swtch.name)
		}
	}
}

// TestSweepMultisimMidColumnKill kills members mid-column via fault
// injection: the panicking size is carved out of its columns, the
// surviving members journal, and a clean resume completes the grid
// byte-identically.
func TestSweepMultisimMidColumnKill(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192,16384",
		"-policies", "dm,de"}

	want, _, err := runSweep(t, base...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}

	ckpt := filepath.Join(t.TempDir(), "sweep.jsonl")
	_, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt,
		"-inject", "panic=/16384"}, base...)...)
	if err == nil || !strings.Contains(err.Error(), "2 of 6 cells failed") {
		t.Fatalf("injected run: err = %v, want a 2-of-6 failure\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "panicked") {
		t.Errorf("stderr = %q, want the injected panic reported", stderr)
	}

	got, stderr, err := runSweep(t, append([]string{"-checkpoint", ckpt}, base...)...)
	if err != nil {
		t.Fatalf("resume: %v\nstderr: %s", err, stderr)
	}
	if !strings.Contains(stderr, "resuming: 4 of 6 cells journaled") {
		t.Errorf("stderr = %q, want the 4 surviving column members journaled", stderr)
	}
	if got != want {
		t.Errorf("CSV after mid-column kill and resume differs from clean run:\n--- want\n%s--- got\n%s", want, got)
	}
}

// TestSweepMultisimStreamRetry checks transient stream faults reach
// column units (streams are shared per column) and -retries clears them
// without changing the CSV.
func TestSweepMultisimStreamRetry(t *testing.T) {
	args := []string{"-bench", "gcc", "-refs", "20000", "-sizes", "4096,8192",
		"-policies", "dm,de", "-workers", "1"}

	want, _, err := runSweep(t, args...)
	if err != nil {
		t.Fatalf("clean run: %v", err)
	}
	if _, _, err := runSweep(t, append(args, "-inject", "stream-fail=1")...); err == nil {
		t.Fatal("injected stream fault with no retries: want a non-zero exit")
	}
	got, _, err := runSweep(t, append(args, "-inject", "stream-fail=1", "-retries", "2")...)
	if err != nil {
		t.Fatalf("retries did not clear the fault on column units: %v", err)
	}
	if got != want {
		t.Error("retried column CSV differs from clean run")
	}
}
