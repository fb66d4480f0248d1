package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

type declaredMetric struct {
	Name, Unit string
}

func readDeclared(t *testing.T) (e2e, layer []declaredMetric, raw []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		EndToEnd  []declaredMetric `json:"end_to_end"`
		PerLayer  []declaredMetric `json:"per_layer"`
		Workloads []struct{ Name string }
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	return b.EndToEnd, b.PerLayer, raw
}

// TestSmokeEveryWorkload runs each workload at tiny sizes, untraced and
// traced: the correctness gate must pass, every metric BENCHMARK.json
// declares must be printed with its declared unit, and both runs must
// report the same model counts and output digest.
func TestSmokeEveryWorkload(t *testing.T) {
	e2e, layer, raw := readDeclared(t)
	for name := range workloads {
		models := map[string]json.RawMessage{}
		for _, traced := range []string{"0", "1"} {
			name, traced := name, traced
			t.Run(name+"/trace="+traced, func(t *testing.T) {
				root := t.TempDir()
				if err := os.WriteFile(filepath.Join(root, "BENCHMARK.json"), raw, 0o644); err != nil {
					t.Fatal(err)
				}
				if err := os.Mkdir(filepath.Join(root, ".bench_build"), 0o755); err != nil {
					t.Fatal(err)
				}
				var out bytes.Buffer
				err := benchMain([]string{"--workload", name, "--seed", "3", "--seconds", "0.2",
					"--trace", traced, "--smoke", "--root", root}, &out)
				if err != nil {
					t.Fatal(err)
				}
				lines := strings.Split(strings.TrimSpace(out.String()), "\n")
				var res struct {
					Correct           bool
					Attempted, Failed int
					Metrics           map[string]metric
				}
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, lines[0])
				}
				var rep struct {
					Report struct{ Model json.RawMessage }
				}
				if err := json.Unmarshal([]byte(lines[0]), &rep); err != nil {
					t.Fatal(err)
				}
				models[traced] = rep.Report.Model
				want := e2e
				if traced == "1" {
					want = layer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json declares %d", len(res.Metrics), len(want))
				}
				for _, d := range want {
					m, ok := res.Metrics[d.Name]
					switch {
					case !ok:
						t.Errorf("metric %s not printed", d.Name)
					case m.Unit != d.Unit:
						t.Errorf("metric %s: unit %q, declared %q", d.Name, m.Unit, d.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("metric %s: %v", d.Name, m.Value)
					case traced == "0" && m.Value <= 0:
						t.Errorf("end-to-end metric %s is %v, want > 0", d.Name, m.Value)
					}
				}
			})
		}
		if len(models["0"]) < len(`{"model.accesses":{}}`) || !bytes.Equal(models["0"], models["1"]) {
			t.Errorf("%s: untraced model %s, traced %s", name, models["0"], models["1"])
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 2.5}, {0.9, 3.7}, {1, 4}} {
		if got := quantile(xs, c.q); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("empty sample should give 0")
	}
}

func TestSelfTime(t *testing.T) {
	tr := &tracer{spans: []span{
		{ID: 1, Name: "run", Start: 0, End: 10},
		{ID: 2, Parent: 1, Name: "unit", Start: 1, End: 5},
		{ID: 3, Parent: 1, Name: "unit", Start: 3, End: 7}, // overlaps its sibling
		{ID: 4, Parent: 2, Name: "synth", Start: 1, End: 2},
		{ID: 5, Name: "orphan", Start: 2, End: 3},
	}}
	tr.adoptOrphans("orphan", "unit")
	self := tr.selfSeconds()
	for name, want := range map[string]float64{"run": 0.004, "unit": 0.006, "synth": 0.001, "orphan": 0.001} {
		if math.Abs(self[name]-want) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", name, self[name], want)
		}
	}
	if tr.spans[4].Parent != 2 {
		t.Errorf("orphan adopted by %d, want the earliest containing unit 2", tr.spans[4].Parent)
	}
}

func TestPromHistQuantile(t *testing.T) {
	h := promHist{0.1: 2, 1: 6, 10: 8, math.Inf(1): 8}
	if got := h.quantile(0.5); math.Abs(got-(0.1+0.9*0.5)) > 1e-12 {
		t.Errorf("p50 = %v", got)
	}
	if got := (promHist{}).quantile(0.5); got != 0 {
		t.Errorf("empty p50 = %v", got)
	}
}
