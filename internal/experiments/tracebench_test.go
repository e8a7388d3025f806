package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// TestTraceBenchAcceptance checks the trace target's artifact: CAKE and
// GOTO run the same skewed shape with tracing enabled, and the exported
// trace must be valid Chrome Trace Event JSON with pack and compute spans on
// more than one worker lane. (The bandwidth-flatness claim itself is the
// corpus contrast cake-vs-goto-bandwidth-cov.)
func TestTraceBenchAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("trace bench runs full GEMMs")
	}
	res, err := TraceBench(4, true)
	if err != nil {
		t.Fatalf("TraceBench: %v", err)
	}
	if res.Cake.Spans == 0 || res.Goto.Spans == 0 {
		t.Fatalf("empty trace: cake %d spans, goto %d", res.Cake.Spans, res.Goto.Spans)
	}
	if res.Cake.Dropped != 0 || res.Goto.Dropped != 0 {
		t.Fatalf("dropped spans: cake %d, goto %d", res.Cake.Dropped, res.Goto.Dropped)
	}

	// Export exactly as cake-bench trace does and validate the JSON.
	var buf bytes.Buffer
	if err := res.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("exported trace is not valid Chrome Trace Event JSON: %v", err)
	}
	// Per process: pack and compute spans must exist and land on more than
	// one worker lane.
	for pid, name := range map[int]string{1: "cake", 2: "goto"} {
		packLanes := map[int]bool{}
		computeLanes := map[int]bool{}
		for _, ev := range trace.TraceEvents {
			if ev.Pid != pid || ev.Ph != "X" {
				continue
			}
			switch ev.Name {
			case "pack":
				packLanes[ev.Tid] = true
			case "compute":
				computeLanes[ev.Tid] = true
			}
		}
		if len(packLanes) == 0 || len(computeLanes) == 0 {
			t.Fatalf("%s: pack lanes %v, compute lanes %v", name, packLanes, computeLanes)
		}
		lanes := map[int]bool{}
		for l := range packLanes {
			lanes[l] = true
		}
		for l := range computeLanes {
			lanes[l] = true
		}
		if len(lanes) < 2 {
			t.Fatalf("%s: all spans on a single worker lane %v", name, lanes)
		}
	}
}
