package main

import (
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors BENCHMARK.json at the root of the repository.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkJSONMatchesCode: the contract file and the program name
// the same workloads and metrics, with the same units, directions and
// bounds.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b := readBenchmarkJSON(t)
	specs := workloads()
	if len(b.Workloads) != len(specs) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(b.Workloads), len(specs))
	}
	for i, w := range b.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json %q / %q, program %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, file, code []metricDef) {
		if len(file) != len(code) {
			t.Fatalf("%s: BENCHMARK.json has %d metrics, the program %d", kind, len(file), len(code))
		}
		for i := range file {
			if file[i] != code[i] {
				t.Errorf("%s metric %d: BENCHMARK.json %+v, program %+v", kind, i, file[i], code[i])
			}
		}
	}
	same("end_to_end", b.EndToEnd, endToEnd)
	same("per_layer", b.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkMetrics: every declared metric exactly once, finite, well named.
func checkMetrics(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", d.Name)
		case !metricName.MatchString(d.Name):
			t.Errorf("metric name %q is malformed", d.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v is not finite", d.Name, m.Value)
		case m.Unit != d.Unit:
			t.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
}

// TestSmokeEveryWorkload runs each workload end to end at n ~ 800: the
// real handlers on loopback, both modes, every metric, no failures,
// and a trace whose spans nest.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("hosts six serving stacks")
	}
	out := t.TempDir()
	for _, full := range workloads() {
		sp := full.small()
		t.Run(sp.name, func(t *testing.T) {
			e2e, err := runEndToEnd(context.Background(), sp, 1, 0.8, out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, e2e, endToEnd)
			if !e2e.Correct || e2e.Metrics["ok_share"].Value != 1 {
				t.Errorf("end-to-end run: %d of %d operations failed", e2e.Failed, e2e.Attempted)
			}
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value <= 0 {
					t.Errorf("end-to-end metric %s = %v; these are never 0", d.Name, e2e.Metrics[d.Name].Value)
				}
			}

			layers, err := runPerLayer(context.Background(), sp, 1, 0.8, out)
			if err != nil {
				t.Fatal(err)
			}
			checkMetrics(t, layers, perLayer)
			// Spans that escape their parent or change request id count
			// as failures, so Correct covers the nesting promise.
			if !layers.Correct {
				t.Errorf("traced run: %d of %d operations failed", layers.Failed, layers.Attempted)
			}
			for _, name := range []string{"http.self_us", "serve.self_us", "mogul.query_us", "mogul.insert_us", "mogul.direct_topk_us"} {
				if layers.Metrics[name].Value <= 0 {
					t.Errorf("%s = %v on a workload that crosses that layer", name, layers.Metrics[name].Value)
				}
			}
			if calls := layers.Metrics["dist.calls_per_query"].Value; (sp.kind == kindDist) != (calls > 0) {
				t.Errorf("dist.calls_per_query = %v on kind %v", calls, sp.kind)
			}
			data, err := os.ReadFile(filepath.Join(out, sp.name+".trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var tr struct {
				TraceEvents []json.RawMessage `json:"traceEvents"`
			}
			if err := json.Unmarshal(data, &tr); err != nil || len(tr.TraceEvents) == 0 {
				t.Errorf("trace file: %d events, err %v", len(tr.TraceEvents), err)
			}
		})
	}
}
