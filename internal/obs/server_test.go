package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// debugGet fetches a path from a DebugHandler-backed test server and
// returns status and body.
func debugGet(t *testing.T, srv *httptest.Server, path string) (int, string) {
	t.Helper()
	resp, err := srv.Client().Get(srv.URL + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return resp.StatusCode, string(body)
}

// resetDebugState clears process registrations and the published report so
// tests do not see each other's state.
func resetDebugState() {
	debugMu.Lock()
	latestConf, hasConf = nil, false
	debugMu.Unlock()
	processes = Registry[Process]{}
}

func TestDebugHandlerEndpoints(t *testing.T) {
	resetDebugState()
	t.Cleanup(resetDebugState)

	EnableMetrics()
	defer DisableMetrics()
	AccountGemm("cake", 4, 1024, 0, 10, 20, 5)
	MetricsFor("cake").ObservePhase(PhasePack, 500)

	rec := NewRecorder(1, 16)
	rec.Record(0, Span{StartNs: 0, DurNs: 1000, Bytes: 4096, Phase: PhasePack})
	rec.Record(0, Span{StartNs: 1000, DurNs: 3000, Bytes: 0, Phase: PhaseCompute})
	RegisterProcess("cake", rec)

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	t.Run("index", func(t *testing.T) {
		code, body := debugGet(t, srv, "/")
		if code != http.StatusOK || !strings.Contains(body, "/debug/trace.json") {
			t.Fatalf("index: code %d, body %q", code, body)
		}
	})

	t.Run("metrics", func(t *testing.T) {
		code, body := debugGet(t, srv, "/metrics")
		if code != http.StatusOK {
			t.Fatalf("/metrics code %d", code)
		}
		for _, want := range []string{
			`cake_gemms_total{executor="cake"}`,
			`# TYPE cake_packed_bytes_total counter`,
			`# TYPE cake_phase_duration_seconds histogram`,
			`cake_phase_duration_seconds_bucket{executor="cake",phase="pack",le="+Inf"} 1`,
			`cake_phase_duration_seconds_count{executor="cake",phase="pack"} 1`,
		} {
			if !strings.Contains(body, want) {
				t.Fatalf("/metrics missing %q in:\n%s", want, body)
			}
		}
	})

	t.Run("expvar", func(t *testing.T) {
		code, body := debugGet(t, srv, "/debug/vars")
		if code != http.StatusOK {
			t.Fatalf("/debug/vars code %d", code)
		}
		var decoded map[string]any
		if err := json.Unmarshal([]byte(body), &decoded); err != nil {
			t.Fatalf("/debug/vars not JSON: %v", err)
		}
		if _, ok := decoded["cake_metrics"]; !ok {
			t.Fatal("/debug/vars missing cake_metrics")
		}
	})

	t.Run("trace", func(t *testing.T) {
		code, body := debugGet(t, srv, "/debug/trace.json")
		if code != http.StatusOK {
			t.Fatalf("/debug/trace.json code %d", code)
		}
		var f decodedFile
		if err := json.Unmarshal([]byte(body), &f); err != nil {
			t.Fatalf("/debug/trace.json not a trace file: %v", err)
		}
		var sawSpan bool
		for _, ev := range f.TraceEvents {
			if ev.Ph == "X" && ev.Name == "pack" {
				sawSpan = true
			}
		}
		if !sawSpan {
			t.Fatalf("trace has no pack span: %+v", f.TraceEvents)
		}
	})

	t.Run("timeline", func(t *testing.T) {
		code, body := debugGet(t, srv, "/debug/timeline.json?buckets=4")
		if code != http.StatusOK {
			t.Fatalf("/debug/timeline.json code %d", code)
		}
		var decoded struct {
			Buckets   int             `json:"buckets"`
			Processes []timelineEntry `json:"processes"`
		}
		if err := json.Unmarshal([]byte(body), &decoded); err != nil {
			t.Fatalf("/debug/timeline.json not JSON: %v", err)
		}
		if decoded.Buckets != 4 || len(decoded.Processes) != 1 {
			t.Fatalf("timeline = %+v", decoded)
		}
		p := decoded.Processes[0]
		if p.Name != "cake" || p.Stats.TotalB != 4096 || len(p.Timeline.Bytes) > 4 {
			t.Fatalf("timeline entry = %+v", p)
		}

		if code, _ := debugGet(t, srv, "/debug/timeline.json?buckets=bogus"); code != http.StatusBadRequest {
			t.Fatalf("bogus buckets param: code %d, want 400", code)
		}
		if code, _ := debugGet(t, srv, "/debug/timeline.json?buckets=-1"); code != http.StatusBadRequest {
			t.Fatalf("negative buckets param: code %d, want 400", code)
		}
	})

	t.Run("conformance", func(t *testing.T) {
		code, _ := debugGet(t, srv, "/debug/conformance.json")
		if code != http.StatusNotFound {
			t.Fatalf("conformance before publish: code %d, want 404", code)
		}
		SetConformance(map[string]any{"pass": true, "executor": "cake"})
		code, body := debugGet(t, srv, "/debug/conformance.json")
		if code != http.StatusOK {
			t.Fatalf("conformance after publish: code %d", code)
		}
		var decoded map[string]any
		if err := json.Unmarshal([]byte(body), &decoded); err != nil {
			t.Fatalf("conformance not JSON: %v", err)
		}
		if decoded["pass"] != true {
			t.Fatalf("conformance body = %v", decoded)
		}
	})

	t.Run("pprof", func(t *testing.T) {
		code, body := debugGet(t, srv, "/debug/pprof/")
		if code != http.StatusOK || !strings.Contains(body, "goroutine") {
			t.Fatalf("/debug/pprof/: code %d", code)
		}
	})
}

// TestIndexListsEveryRoute proves the index page cannot drift from the
// mounted route set: every pattern DebugRoutes() reports — built-ins plus
// anything contributed through HandleDebug — must appear on the index, and
// must actually be mounted on the handler the index came from.
func TestIndexListsEveryRoute(t *testing.T) {
	resetDebugState()
	t.Cleanup(resetDebugState)

	HandleDebug("/debug/test-extra.json", "index-completeness probe",
		http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			io.WriteString(w, `{"ok":true}`)
		}))

	srv := httptest.NewServer(DebugHandler())
	defer srv.Close()

	code, index := debugGet(t, srv, "/")
	if code != http.StatusOK {
		t.Fatalf("index code %d", code)
	}
	routes := DebugRoutes()
	if len(routes) == 0 {
		t.Fatal("DebugRoutes returned nothing")
	}
	for _, rt := range routes {
		if !strings.Contains(index, ">"+rt.Pattern+"</a>") {
			t.Errorf("index is missing registered route %s", rt.Pattern)
		}
		if rt.Desc == "" {
			t.Errorf("route %s has no description for the index", rt.Pattern)
		}
	}

	// The registered extra is mounted, not just listed.
	code, body := debugGet(t, srv, "/debug/test-extra.json")
	if code != http.StatusOK || body != `{"ok":true}` {
		t.Fatalf("extra route: code %d, body %q", code, body)
	}

	// Re-registering a pattern replaces in place, without duplicating.
	before := len(DebugRoutes())
	HandleDebug("/debug/test-extra.json", "replaced probe", http.NotFoundHandler())
	after := DebugRoutes()
	if len(after) != before {
		t.Fatalf("re-register changed route count %d -> %d", before, len(after))
	}
	found := false
	for _, rt := range after {
		if rt.Pattern == "/debug/test-extra.json" && rt.Desc == "replaced probe" {
			found = true
		}
	}
	if !found {
		t.Fatal("re-registered route did not replace in place")
	}
}

func TestRegisterProcessReplaceKeepsOrder(t *testing.T) {
	resetDebugState()
	t.Cleanup(resetDebugState)

	r1, r2, r3 := NewRecorder(1, 4), NewRecorder(1, 4), NewRecorder(1, 4)
	RegisterProcess("cake", r1)
	RegisterProcess("goto", r2)
	RegisterProcess("cake", r3) // replaces, keeps position

	procs := RegisteredProcesses()
	if len(procs) != 2 {
		t.Fatalf("processes = %d, want 2", len(procs))
	}
	if procs[0].Name != "cake" || procs[0].Rec != r3 {
		t.Fatalf("slot 0 = %q (rec replaced: %v)", procs[0].Name, procs[0].Rec == r3)
	}
	if procs[1].Name != "goto" || procs[1].Rec != r2 {
		t.Fatalf("slot 1 = %q", procs[1].Name)
	}
}

func TestServeBindsAndServes(t *testing.T) {
	resetDebugState()
	t.Cleanup(resetDebugState)

	s, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatalf("Serve: %v", err)
	}
	defer s.Close()

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatalf("GET live server: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("live /metrics code %d", resp.StatusCode)
	}
}
