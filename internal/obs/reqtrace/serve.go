package reqtrace

import (
	"cmp"
	"encoding/json"
	"expvar"
	"fmt"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"time"

	"repro/internal/engine/resident"
	"repro/internal/obs"
)

// Debug-server and metrics exports. The package contributes its endpoints
// and Prometheus families to the obs debug server through the obs
// registries at init time, so any binary that links an engine (engine
// imports reqtrace) gets /debug/requests.json, /debug/slo.json and
// /debug/snapshots.json mounted on the next obs.DebugHandler — no wiring in
// the host. The expvar maps "cake_engine" and "cake_resident" appear once
// the first engine is published, "cake_slo" once the first tracer is.

func init() {
	obs.HandleDebug("/debug/requests.json",
		"flight recorder: recent request records (?reqid=N, ?engine=name, ?n=K)",
		http.HandlerFunc(serveRequests))
	obs.HandleDebug("/debug/slo.json",
		"SLO burn rates and error-budget remaining (?engine=name)",
		http.HandlerFunc(serveSLO))
	obs.HandleDebug("/debug/snapshots.json",
		"frozen flight-recorder snapshots from anomaly trips (?engine=name)",
		http.HandlerFunc(serveSnapshots))
	obs.RegisterFamilies("engine", scraper(counters), engineFamilies...)
	obs.RegisterFamilies("resident", scraper(stored), residentFamilies...)
	obs.RegisterFamilies("requests", scraper(traced), requestFamilies...)
}

// Engine is one engine's published telemetry: the single registry entry
// that the debug endpoints, the cake_engine, cake_resident and cake_slo
// expvars and the engine, resident and request families all read.
// Counters and Resident must be set and safe to call from any goroutine.
type Engine struct {
	Name     string
	Tracer   *Tracer // nil when the engine runs with Trace.Disable
	Counters func() obs.EngineStats
	Resident func() resident.Stats
}

// engines is the package-wide engine directory. Re-publishing a name
// replaces its entry in place (engine restarts in tests).
var engines obs.Registry[Engine]

var engineVarsOnce, sloVarOnce sync.Once

// Publish registers an engine's telemetry under its name, replacing any
// earlier entry of that name.
func Publish(e Engine) {
	engines.Set(e.Name, e)
	engineVarsOnce.Do(func() {
		publishMap("cake_engine", counters)
		publishMap("cake_resident", stored)
	})
	if e.Tracer == nil {
		return
	}
	sloVarOnce.Do(func() {
		publishMap("cake_slo", func(e Engine, now time.Time) ([]Status, bool) {
			t, ok := traced(e, now)
			return t.slos, ok
		})
	})
	// The request spans join /debug/trace.json as a "requests/<engine>"
	// process, read from the live entry: a re-published engine serves its
	// new tracer's ring.
	name := e.Name
	obs.RegisterTraceSource("requests/"+name, func() []obs.TraceEvent {
		t, _ := Lookup(name)
		return t.traceEvents()
	})
}

// Views of an entry for the exports, read at a scrape's instant: each
// reports whether the engine has it.
func counters(e Engine, _ time.Time) (obs.EngineStats, bool) { return e.Counters(), true }
func stored(e Engine, _ time.Time) (resident.Stats, bool)    { return e.Resident(), true }
func traced(e Engine, now time.Time) (tracedView, bool) {
	if e.Tracer == nil {
		return tracedView{}, false
	}
	return tracedView{e.Tracer, e.Tracer.SLOStatuses(now)}, true
}

// tracedView is an engine's tracer with its SLO statuses at one instant.
type tracedView struct {
	t    *Tracer
	slos []Status
}

// viewed is one engine's view, as one scrape read it.
type viewed[V any] struct {
	engine string
	v      V
}

// scraper returns a scrape that reads the view once for each published
// engine that has it, all at one instant, and reports whether any had it.
func scraper[V any](view func(Engine, time.Time) (V, bool)) func() ([]viewed[V], bool) {
	return func() ([]viewed[V], bool) {
		now := time.Now()
		var out []viewed[V]
		for _, e := range published() {
			if v, ok := view(e, now); ok {
				out = append(out, viewed[V]{e.Name, v})
			}
		}
		return out, len(out) > 0
	}
}

// publishMap publishes the expvar map name, holding each published
// engine's view under the engine's name.
func publishMap[V any](name string, view func(Engine, time.Time) (V, bool)) {
	scrape := scraper(view)
	expvar.Publish(name, expvar.Func(func() any {
		out := map[string]V{}
		ss, _ := scrape()
		for _, s := range ss {
			out[s.engine] = s.v
		}
		return out
	}))
}

// published returns the registered engines in registration order.
func published() []Engine {
	_, es := engines.Snapshot()
	return es
}

// Published returns the published engines' tracers in registration order,
// leaving out engines that run without one.
func Published() []*Tracer {
	var out []*Tracer
	for _, e := range published() {
		if e.Tracer != nil {
			out = append(out, e.Tracer)
		}
	}
	return out
}

// Lookup finds a published engine's tracer by engine name.
func Lookup(name string) (*Tracer, bool) {
	e, _ := engines.Get(name)
	return e.Tracer, e.Tracer != nil
}

// traceEvents renders the ring as Chrome-trace events, one lane per tier.
// Admission waits longer than a microsecond appear as a nested
// "admit-wait" slice at the head of their request.
func (t *Tracer) traceEvents() []obs.TraceEvent {
	recs := t.Recent()
	if len(recs) == 0 {
		return nil
	}
	origin := slices.MinFunc(recs, func(a, b Record) int { return cmp.Compare(a.StartNs, b.StartNs) }).StartNs
	events := make([]obs.TraceEvent, 0, len(recs))
	for _, r := range recs {
		lane := tierIndex(r.Tier)
		ts := float64(r.StartNs-origin) / 1e3
		events = append(events, obs.TraceEvent{
			Name: "request", TsUs: ts, DurUs: float64(r.DurNs) / 1e3,
			Lane: lane, LaneName: tierNames[lane],
			Args: map[string]any{
				"reqid":   r.ID,
				"outcome": r.Outcome.String(),
				"tenant":  r.Tenant,
				"shape":   fmt.Sprintf("%dx%dx%d", r.M, r.K, r.N),
				"lease":   r.Lease.String(),
				"pack_us": float64(r.PackNs) / 1e3,
			},
		})
		if r.AdmitWaitNs > 1e3 {
			events = append(events, obs.TraceEvent{
				Name: "admit-wait", TsUs: ts, DurUs: float64(r.AdmitWaitNs) / 1e3,
				Lane: lane, LaneName: tierNames[lane],
				Args: map[string]any{"reqid": r.ID, "queue_depth": r.QueueDepth},
			})
		}
	}
	return events
}

// selectTracers resolves the ?engine= query: a named tracer, or every
// published one. Writes the 404 itself when the name is unknown.
func selectTracers(w http.ResponseWriter, r *http.Request) ([]*Tracer, bool) {
	if name := r.URL.Query().Get("engine"); name != "" {
		t, ok := Lookup(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no tracer published for engine %q", name), http.StatusNotFound)
			return nil, false
		}
		return []*Tracer{t}, true
	}
	ts := Published()
	if len(ts) == 0 {
		http.Error(w, "no request tracer published (engine running with Trace.Disable?)", http.StatusNotFound)
		return nil, false
	}
	return ts, true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// defaultRecentLimit bounds how many ring records one /debug/requests.json
// response carries unless ?n= asks otherwise (?n=0 means the whole ring).
const defaultRecentLimit = 256

// engineRequests is one engine's slice of /debug/requests.json.
type engineRequests struct {
	Engine    string           `json:"engine"`
	Committed int64            `json:"committed"`
	Dropped   int64            `json:"dropped"`
	Outcomes  map[string]int64 `json:"outcomes"`
	Records   []Record         `json:"records"`
}

func outcomeMap(t *Tracer) map[string]int64 {
	out := map[string]int64{}
	for o := Outcome(0); o < outcomeCount; o++ {
		if c := t.tally.Outcome(o); c != 0 {
			out[o.String()] = c
		}
	}
	return out
}

func serveRequests(w http.ResponseWriter, r *http.Request) {
	ts, ok := selectTracers(w, r)
	if !ok {
		return
	}
	if q := r.URL.Query().Get("reqid"); q != "" {
		id, err := strconv.ParseUint(q, 10, 64)
		if err != nil {
			http.Error(w, "reqid must be an unsigned integer", http.StatusBadRequest)
			return
		}
		for _, t := range ts {
			if rec, found := t.LookupRecord(id); found {
				writeJSON(w, map[string]any{"engine": t.Name(), "record": rec})
				return
			}
		}
		http.Error(w, fmt.Sprintf("request %d not in any flight recorder (ring wrapped, or never recorded)", id),
			http.StatusNotFound)
		return
	}
	limit := defaultRecentLimit
	if q := r.URL.Query().Get("n"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n < 0 {
			http.Error(w, "n must be a non-negative integer", http.StatusBadRequest)
			return
		}
		limit = n
	}
	engines := make([]engineRequests, 0, len(ts))
	for _, t := range ts {
		recs := t.Recent()
		if limit > 0 && len(recs) > limit {
			recs = recs[len(recs)-limit:]
		}
		engines = append(engines, engineRequests{
			Engine:    t.Name(),
			Committed: t.Committed(),
			Dropped:   t.Dropped(),
			Outcomes:  outcomeMap(t),
			Records:   recs,
		})
	}
	writeJSON(w, map[string]any{"engines": engines})
}

// engineSLO is one engine's slice of /debug/slo.json.
type engineSLO struct {
	Engine string   `json:"engine"`
	SLOs   []Status `json:"slos"`
}

func serveSLO(w http.ResponseWriter, r *http.Request) {
	ts, ok := selectTracers(w, r)
	if !ok {
		return
	}
	now := time.Now()
	engines := make([]engineSLO, 0, len(ts))
	for _, t := range ts {
		engines = append(engines, engineSLO{Engine: t.Name(), SLOs: t.SLOStatuses(now)})
	}
	writeJSON(w, map[string]any{"at_ns": now.UnixNano(), "engines": engines})
}

func serveSnapshots(w http.ResponseWriter, r *http.Request) {
	ts, ok := selectTracers(w, r)
	if !ok {
		return
	}
	snaps := []Snapshot{}
	for _, t := range ts {
		snaps = append(snaps, t.Snapshots()...)
	}
	writeJSON(w, map[string]any{"snapshots": snaps})
}

// perEngine builds a table row: series emits one scraped engine's samples.
func perEngine[V any](name, typ, help string, series func(emit obs.Emit, engine string, v V)) obs.Family[[]viewed[V]] {
	return obs.Family[[]viewed[V]]{Name: name, Type: typ, Help: help, Samples: func(ss []viewed[V], emit obs.Emit) {
		for _, s := range ss {
			series(emit, s.engine, s.v)
		}
	}}
}

// one is the series of a row with one value per engine.
func one[V any](value func(V) int64) func(emit obs.Emit, engine string, v V) {
	return func(emit obs.Emit, engine string, v V) { emit("", float64(value(v)), "engine", engine) }
}

// engineFamilies and residentFamilies are the serving-counter and
// resident-store rows of the metric table, so /metrics carries an engine's
// saturation, dispatch mix and resident traffic next to its executors'
// per-GEMM accounting.
var engineFamilies = []obs.Family[[]viewed[obs.EngineStats]]{
	perEngine("cake_engine_in_flight", "gauge", "Requests currently holding cores.", one(func(s obs.EngineStats) int64 { return s.InFlight })),
	perEngine("cake_engine_queue_depth", "gauge", "Requests waiting for admission.", one(func(s obs.EngineStats) int64 { return s.Queued })),
	perEngine("cake_engine_queued_total", "counter", "Requests that waited for admission.", one(func(s obs.EngineStats) int64 { return s.QueuedTotal })),
	perEngine("cake_engine_rejected_total", "counter", "Requests refused at the admission limit.", one(func(s obs.EngineStats) int64 { return s.Rejected })),
	perEngine("cake_engine_tier_hits_total", "counter", "Dispatches by size tier.", func(emit obs.Emit, engine string, s obs.EngineStats) {
		emit("", float64(s.TierTiny), "engine", engine, "tier", "tiny")
		emit("", float64(s.TierSmall), "engine", engine, "tier", "small")
		emit("", float64(s.TierLarge), "engine", engine, "tier", "large")
	}),
	perEngine("cake_engine_leases_total", "counter", "Executor leases by outcome.", func(emit obs.Emit, engine string, s obs.EngineStats) {
		emit("", float64(s.LeaseNew), "engine", engine, "kind", "new")
		emit("", float64(s.LeaseReused), "engine", engine, "kind", "reused")
	}),
}

var residentFamilies = []obs.Family[[]viewed[resident.Stats]]{
	perEngine("cake_resident_operands", "gauge", "Operands currently resident.", one(func(s resident.Stats) int64 { return s.Entries })),
	perEngine("cake_resident_pinned", "gauge", "Resident operands pinned by in-flight GEMMs.", one(func(s resident.Stats) int64 { return s.Pinned })),
	perEngine("cake_resident_bytes", "gauge", "Resident packed-panel bytes.", one(func(s resident.Stats) int64 { return s.Bytes })),
	perEngine("cake_resident_budget_bytes", "gauge", "Configured resident byte budget (0 = unlimited).", one(func(s resident.Stats) int64 { return s.Budget })),
	perEngine("cake_resident_hits_total", "counter", "Resident operand acquisitions served.", one(func(s resident.Stats) int64 { return s.Hits })),
	perEngine("cake_resident_misses_total", "counter", "Resident operand acquisitions failed (evicted or unknown).", one(func(s resident.Stats) int64 { return s.Misses })),
	perEngine("cake_resident_evictions_total", "counter", "Resident operands lost to budget pressure.", one(func(s resident.Stats) int64 { return s.Evictions })),
	perEngine("cake_resident_avoided_pack_bytes_total", "counter", "Pack traffic skipped by resident-path GEMMs.", one(func(s resident.Stats) int64 { return s.AvoidedPackBytes })),
}

// requestFamilies are the request-lifecycle rows of the metric table, one
// series set per engine with a tracer.
var requestFamilies = []obs.Family[[]viewed[tracedView]]{
	perEngine("cake_requests_total", "counter", "Engine requests by outcome.", func(emit obs.Emit, engine string, v tracedView) {
		for o := Outcome(0); o < outcomeCount; o++ {
			emit("", float64(v.t.tally.Outcome(o)), "engine", engine, "outcome", o.String())
		}
	}),
	perEngine("cake_request_tier_p99_seconds", "gauge", "Rolling p99 request latency bound per tier.", func(emit obs.Emit, engine string, v tracedView) {
		for _, tier := range tierNames {
			if p99 := v.t.TierP99(tier); p99 > 0 {
				emit("", float64(p99)/1e9, "engine", engine, "tier", tier)
			}
		}
	}),
	perEngine("cake_flight_recorder_dropped_total", "counter", "Records overwritten by the flight-recorder ring.", one(func(v tracedView) int64 { return v.t.Dropped() })),
	perEngine("cake_snapshot_trips_total", "counter", "Anomaly trips by reason (snapshot freezes plus refractory-collapsed repeats).", func(emit obs.Emit, engine string, v tracedView) {
		for why := Reason(0); why < reasonCount; why++ {
			emit("", float64(v.t.TripCount(why)), "engine", engine, "reason", why.String())
		}
	}),
	perEngine("cake_slo_burn_rate", "gauge", "Error-budget burn rate per objective window (1.0 = spending exactly the budget).", func(emit obs.Emit, engine string, v tracedView) {
		for _, st := range v.slos {
			for _, ws := range st.Windows {
				emit("", ws.BurnRate, "engine", engine, "objective", st.Name, "window", ws.Window)
			}
		}
	}),
	perEngine("cake_slo_budget_remaining", "gauge", "Lifetime error budget remaining (1 untouched, 0 exhausted, negative overspent).", func(emit obs.Emit, engine string, v tracedView) {
		for _, st := range v.slos {
			emit("", st.BudgetRemaining, "engine", engine, "objective", st.Name)
		}
	}),
}
