package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/policy"
)

func TestFormatCounters(t *testing.T) {
	got := formatCounters([]cache.Counter{
		{Name: "sticky_defenses", Value: 3},
		{Name: "lastline_hits", Value: 0},
	})
	if want := "sticky_defenses=3 lastline_hits=0"; got != want {
		t.Errorf("formatCounters = %q, want %q", got, want)
	}
}

func TestLoadRefsPattern(t *testing.T) {
	refs, desc, err := loadRefs("", "within-loop", "", "instr", 0, 1<<10)
	if err != nil {
		t.Fatalf("loadRefs: %v", err)
	}
	if len(refs) == 0 || desc == "" {
		t.Errorf("loadRefs = %d refs, desc %q", len(refs), desc)
	}
	if _, _, err := loadRefs("", "no-such-pattern", "", "instr", 0, 1<<10); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestLoadRefsUnknownBench(t *testing.T) {
	if _, _, err := loadRefs("nonesuch", "", "", "instr", 100, 1<<10); err == nil {
		t.Error("unknown benchmark accepted")
	}
	if _, _, err := loadRefs("gcc", "", "", "bogus-kind", 100, 1<<10); err == nil {
		t.Error("unknown kind accepted")
	}
}

// goldenRuns is the command lines pinned by testdata/golden.txt: every
// registered policy name at two warmups and two line sizes, plus the
// default two-level hierarchy.
func goldenRuns() [][]string {
	var runs [][]string
	for _, name := range policy.Names() {
		for _, warmup := range []string{"0", "5000"} {
			for _, line := range []string{"4", "16"} {
				runs = append(runs, []string{"-bench", "gcc", "-refs", "20000",
					"-policy", name, "-warmup", warmup, "-line", line})
			}
		}
	}
	return append(runs, []string{"-bench", "gcc", "-refs", "20000", "-l2", "131072"})
}

// TestGolden pins the command's stdout byte-for-byte across
// refactors of the measurement path.
func TestGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "golden.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, args := range goldenRuns() {
		fmt.Fprintf(&b, "== dynex %s ==\n", strings.Join(args, " "))
		if err := run(context.Background(), args, &b, io.Discard); err != nil {
			t.Fatalf("dynex %s: %v", strings.Join(args, " "), err)
		}
	}
	if got := b.String(); got != string(want) {
		t.Errorf("output drifted from testdata/golden.txt:\n%s", got)
	}
}

// TestL2RejectsPolicy: the two-level system's L1 is always dynamic
// exclusion, so an explicit -policy other than bare "de" is an error
// that names the flags which do configure it, not a silently ignored
// spec.
func TestL2RejectsPolicy(t *testing.T) {
	base := []string{"-bench", "gcc", "-refs", "20000", "-l2", "131072"}
	for _, pol := range []string{"lru4", "de:sticky=3", "de-hashed", "opt"} {
		err := run(context.Background(), append([]string{"-policy", pol}, base...), io.Discard, io.Discard)
		if err == nil {
			t.Errorf("-policy %s -l2: no error", pol)
			continue
		}
		for _, name := range []string{"-sticky", "-lastline", "-strategy"} {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("-policy %s -l2: error %q does not name %s", pol, err, name)
			}
		}
	}
	var def, bare strings.Builder
	if err := run(context.Background(), base, &def, io.Discard); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), append([]string{"-policy", "de"}, base...), &bare, io.Discard); err != nil {
		t.Fatalf("-policy de -l2: %v", err)
	}
	if bare.String() != def.String() {
		t.Errorf("-policy de -l2 output differs from the default:\n%s\nvs\n%s", bare.String(), def.String())
	}
}
