// Live debug server for long-running hosts: one stdlib-only HTTP endpoint
// bundle exposing everything the observability layer knows — Prometheus
// metrics, expvar, pprof, on-demand Chrome-trace download, bandwidth
// timelines, and the latest model-conformance report. A host embeds the
// executors, registers its trace recorders, and calls Serve; nothing here
// touches the GEMM hot path.
//
// Routes live in a registry: the built-in bundle plus whatever other
// packages contribute via HandleDebug (e.g. obs/reqtrace's request-lifecycle
// endpoints). The index page is generated from the same registry snapshot
// the mux is built from, so "/" always lists exactly what is mounted.
package obs

import (
	"encoding/json"
	"expvar"
	"fmt"
	"html"
	"net"
	"net/http"
	"net/http/pprof"
	"sort"
	"strconv"
	"sync"
)

var (
	debugMu    sync.Mutex
	latestConf any
	hasConf    bool
	processes  Registry[Process] // registration order preserved for stable pids
)

// RegisterProcess makes a named recorder visible to the debug endpoints
// (/debug/trace.json and /debug/timeline.json). Registering a name again
// replaces its recorder in place, keeping the original position — so a
// host that re-traces "cake" and "goto" per request keeps stable trace
// pids. The recorder is read live on each request: whatever spans it holds
// at download time are what the trace shows.
func RegisterProcess(name string, rec *Recorder) {
	processes.Set(name, Process{Name: name, Rec: rec})
}

// RegisteredProcesses returns a snapshot of the registered trace processes.
func RegisteredProcesses() []Process {
	_, procs := processes.Snapshot()
	return procs
}

// SetConformance publishes a conformance report (any JSON-marshalable
// value; in practice *conformance.Report) as the latest one served on
// /debug/conformance.json. The obs package takes it as an opaque value so
// the conformance layer can depend on obs without a cycle.
func SetConformance(report any) {
	debugMu.Lock()
	defer debugMu.Unlock()
	latestConf, hasConf = report, true
}

// LatestConformance returns the most recently published conformance report,
// or ok=false when none has been published yet.
func LatestConformance() (any, bool) {
	debugMu.Lock()
	defer debugMu.Unlock()
	return latestConf, hasConf
}

// DebugRoute is one debug-server endpoint: its mux pattern, a one-line
// description for the index page, and the handler.
type DebugRoute struct {
	Pattern string
	Desc    string
	Handler http.Handler
}

var extraRoutes Registry[DebugRoute]

// HandleDebug contributes a route to the debug server. Packages that extend
// the observability surface (reqtrace, future serving layers) register
// their endpoints here — typically from init() — and every subsequent
// DebugHandler() mounts them and lists them on the index. Re-registering a
// pattern replaces its handler and description in place. Patterns must not
// collide with the built-in bundle (DebugHandler panics on duplicates, same
// as http.ServeMux would).
func HandleDebug(pattern, desc string, h http.Handler) {
	extraRoutes.Set(pattern, DebugRoute{Pattern: pattern, Desc: desc, Handler: h})
}

// builtinRoutes is the core endpoint bundle. The index route itself is
// added by DebugHandler, closed over the full snapshot.
func builtinRoutes() []DebugRoute {
	return []DebugRoute{
		{"/metrics", "Prometheus text exposition", http.HandlerFunc(serveMetrics)},
		{"/debug/vars", "expvar JSON", expvar.Handler()},
		{"/debug/pprof/", "pprof profiles", http.HandlerFunc(pprof.Index)},
		{"/debug/pprof/cmdline", "pprof cmdline", http.HandlerFunc(pprof.Cmdline)},
		{"/debug/pprof/profile", "pprof CPU profile", http.HandlerFunc(pprof.Profile)},
		{"/debug/pprof/symbol", "pprof symbol lookup", http.HandlerFunc(pprof.Symbol)},
		{"/debug/pprof/trace", "runtime execution trace", http.HandlerFunc(pprof.Trace)},
		{"/debug/trace.json", "Chrome trace (load in Perfetto)", http.HandlerFunc(serveTrace)},
		{"/debug/timeline.json", "bandwidth timelines (?buckets=N)", http.HandlerFunc(serveTimeline)},
		{"/debug/conformance.json", "latest conformance report", http.HandlerFunc(serveConformance)},
		{"/debug/corpus.json", "latest corpus epoch + per-cell trend verdicts", http.HandlerFunc(serveCorpus)},
	}
}

// DebugRoutes returns the full route set a DebugHandler built right now
// would mount (built-ins plus registered extras), sorted by pattern. The
// index test walks this to prove the index page is complete.
func DebugRoutes() []DebugRoute {
	_, extras := extraRoutes.Snapshot()
	all := append(builtinRoutes(), extras...)
	sort.Slice(all, func(i, j int) bool { return all[i].Pattern < all[j].Pattern })
	return all
}

// DebugHandler returns the debug server's routes on a fresh mux, so hosts
// can mount them on their own server (or tests on httptest) without binding
// a socket. The route set is snapshotted at call time; the index page is
// generated from that same snapshot.
func DebugHandler() http.Handler {
	routes := DebugRoutes()
	mux := http.NewServeMux()
	mux.HandleFunc("/{$}", func(w http.ResponseWriter, r *http.Request) {
		serveIndex(w, routes)
	})
	for _, rt := range routes {
		mux.Handle(rt.Pattern, rt.Handler)
	}
	return mux
}

func serveMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	WritePrometheus(w)
}

// serveIndex renders the route list it is given — the exact set mounted on
// the mux — so the index can never drift from the registered endpoints.
func serveIndex(w http.ResponseWriter, routes []DebugRoute) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, "<html><head><title>cake debug</title></head><body>\n<h1>cake debug server</h1><ul>\n")
	for _, rt := range routes {
		p := html.EscapeString(rt.Pattern)
		fmt.Fprintf(w, "<li><a href=%q>%s</a> — %s</li>\n", p, p, html.EscapeString(rt.Desc))
	}
	fmt.Fprint(w, "</ul></body></html>\n")
}

func serveTrace(w http.ResponseWriter, r *http.Request) {
	procs := RegisteredProcesses()
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="cake-trace.json"`)
	if err := WriteChromeTraceAll(w, procs...); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
	}
}

// timelineEntry is one registered process's bucketed bandwidth view.
type timelineEntry struct {
	Name     string   `json:"name"`
	Stats    BWStats  `json:"stats"`
	Timeline Timeline `json:"timeline"`
}

func serveTimeline(w http.ResponseWriter, r *http.Request) {
	buckets := 12
	if q := r.URL.Query().Get("buckets"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 1 || n > 1_000_000 {
			http.Error(w, "buckets must be an integer in [1, 1000000]", http.StatusBadRequest)
			return
		}
		buckets = n
	}
	entries := []timelineEntry{}
	for _, p := range RegisteredProcesses() {
		tl := NewTimelineN(p.Rec.Spans(), buckets)
		entries = append(entries, timelineEntry{Name: p.Name, Stats: tl.Stats(), Timeline: tl})
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(map[string]any{"buckets": buckets, "processes": entries})
}

func serveConformance(w http.ResponseWriter, r *http.Request) {
	report, ok := LatestConformance()
	if !ok {
		http.Error(w, "no conformance report published yet", http.StatusNotFound)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(report)
}

// DebugServer is a running debug HTTP server handle.
type DebugServer struct {
	ln  net.Listener
	srv *http.Server
}

// Addr returns the server's bound address (useful with ":0").
func (s *DebugServer) Addr() string { return s.ln.Addr().String() }

// Close shuts the listener down; in-flight requests are abandoned.
func (s *DebugServer) Close() error { return s.srv.Close() }

// Serve binds addr (e.g. "localhost:6060" or ":0" for an ephemeral port)
// and serves DebugHandler on it in a background goroutine, returning once
// the listener is bound. The caller owns the returned handle and should
// Close it on shutdown.
func Serve(addr string) (*DebugServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	srv := &http.Server{Handler: DebugHandler()}
	go srv.Serve(ln)
	return &DebugServer{ln: ln, srv: srv}, nil
}
