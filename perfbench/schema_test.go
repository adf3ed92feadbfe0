package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the schema test reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// TestBenchmarkJSONMatchesSchema: BENCHMARK.json lists exactly the
// workloads and metrics this program reports, with the same units.
func TestBenchmarkJSONMatchesSchema(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range bj.Workloads {
		got = append(got, w.Name)
	}
	for name := range workloads {
		want = append(want, name)
	}
	sort.Strings(got)
	sort.Strings(want)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("workloads: BENCHMARK.json %v, program %v", got, want)
	}

	if len(bj.EndToEnd) != len(endToEnd) {
		t.Fatalf("end_to_end: %d in BENCHMARK.json, %d in the program", len(bj.EndToEnd), len(endToEnd))
	}
	maxBound := 0.0
	for i, m := range bj.EndToEnd {
		d := endToEnd[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("end_to_end[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
		maxBound = max(maxBound, m.Bound)
	}
	for _, m := range bj.EndToEnd {
		if m.Name == "setup_s" && m.Bound != maxBound {
			t.Errorf("setup_s bound %v is not the largest (%v)", m.Bound, maxBound)
		}
	}

	defs := perLayerDefs()
	if len(bj.PerLayer) != len(defs) {
		t.Fatalf("per_layer: %d in BENCHMARK.json, %d in the program", len(bj.PerLayer), len(defs))
	}
	for i, m := range bj.PerLayer {
		d := defs[i]
		if m.Name != d.name || m.Unit != d.unit || m.Better != d.better {
			t.Errorf("per_layer[%d] = %s %s %s, program has %s %s %s", i, m.Name, m.Unit, m.Better, d.name, d.unit, d.better)
		}
	}
}

// TestWorkloadMetricsMatchSchema: an untraced toy run reports exactly
// the end-to-end metrics, with their units.
func TestStreamMetricsMatchSchema(t *testing.T) {
	rep, err := runStream(toyStream, options{seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Correct || rep.Failed != 0 {
		t.Fatalf("toy run failed checks: %+v", rep.result)
	}
	if len(rep.Metrics) != len(endToEnd) {
		t.Fatalf("%d metrics, want %d", len(rep.Metrics), len(endToEnd))
	}
	for _, d := range endToEnd {
		m, ok := rep.Metrics[d.name]
		if !ok || m.Unit != d.unit {
			t.Errorf("%s: got %+v (present %v), want unit %s", d.name, m, ok, d.unit)
		}
		if m.Value == 0 {
			t.Errorf("%s reads 0", d.name)
		}
	}
}
