package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json, which declares this
// program's command, workloads and metrics.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	var b benchmarkJSON
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.Paths, []string{"perfbench"}) || !slices.Equal(b.Command, []string{"bash", "perfbench/run.sh"}) {
		t.Errorf("command %v / paths %v do not name this directory", b.Command, b.Paths)
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", b.RunSeconds)
	}

	// Every declared workload is one the program runs; the program may
	// hold more (serve-mixed is run by hand only, see README.md).
	if len(b.Workloads) < 2 {
		t.Fatalf("%d workloads declared, want at least 2", len(b.Workloads))
	}
	for _, d := range b.Workloads {
		w, err := findWorkload(d.Name)
		if err != nil || !metricName.MatchString(d.Name) {
			t.Errorf("declared workload %q: %v", d.Name, err)
			continue
		}
		if tail := fmt.Sprintf("engine.tail_ms = p%g", w.tailPct); !strings.Contains(d.Why, tail) {
			t.Errorf("%s: why does not record %q", w.name, tail)
		}
		if len(d.Why) > 200 || strings.Contains(d.Why, "\n") {
			t.Errorf("%s: why is not one line of at most 200 characters", w.name)
		}
	}

	var largest, setupBound float64
	for i, s := range endToEnd {
		if i >= len(b.EndToEnd) {
			t.Fatalf("end_to_end lacks %s", s.name)
		}
		d := b.EndToEnd[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
			t.Errorf("end_to_end %d: declared %s/%s/%s, program %s/%s/%s", i, d.Name, d.Unit, d.Better, s.name, s.unit, s.better)
		}
		if d.Bound == nil || *d.Bound <= 0 || *d.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", d.Name)
			continue
		}
		largest = max(largest, *d.Bound)
		if d.Name == "setup_s" {
			setupBound = *d.Bound
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Errorf("%d end_to_end metrics declared, program has %d", len(b.EndToEnd), len(endToEnd))
	}
	if setupBound != largest {
		t.Errorf("setup_s bound %g is not the largest (%g)", setupBound, largest)
	}

	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics declared, program has %d", len(b.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, s := range perLayer {
		d := b.PerLayer[i]
		if d.Name != s.name || d.Unit != s.unit || d.Better != s.better {
			t.Errorf("per_layer %d: declared %s/%s/%s, program %s/%s/%s", i, d.Name, d.Unit, d.Better, s.name, s.unit, s.better)
		}
		if seen[s.name] {
			t.Errorf("%s declared twice", s.name)
		}
		seen[s.name] = true
	}
	for _, s := range endToEnd {
		if seen[s.name] {
			t.Errorf("%s is both end-to-end and per-layer", s.name)
		}
		if !metricName.MatchString(s.name) || !metricUnit.MatchString(s.unit) {
			t.Errorf("%s/%s breaks the naming rules", s.name, s.unit)
		}
	}
	for _, s := range perLayer {
		if !metricName.MatchString(s.name) || !metricUnit.MatchString(s.unit) {
			t.Errorf("%s/%s breaks the naming rules", s.name, s.unit)
		}
	}
}
