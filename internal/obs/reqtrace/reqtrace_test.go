package reqtrace

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// okRecord builds a completed-OK record with the given latency; IDs come
// from the tracer so LookupRecord works.
func okRecord(t *Tracer, tier string, durNs int64) Record {
	return Record{
		ID:      t.NextID(),
		StartNs: time.Now().UnixNano(),
		DurNs:   durNs,
		Tier:    tier,
		Lease:   LeaseReused,
		Outcome: OutcomeOK,
	}
}

func TestDisableReturnsNil(t *testing.T) {
	tr := New("off", Options{Disable: true})
	if tr != nil {
		t.Fatalf("Disable should yield a nil tracer")
	}
	// Every method must be nil-safe.
	if id := tr.NextID(); id != 0 {
		t.Fatalf("nil NextID = %d", id)
	}
	tr.Finish(Record{Outcome: OutcomeOK})
	if got := tr.Recent(); got != nil {
		t.Fatalf("nil Recent = %v", got)
	}
	if _, ok := tr.LookupRecord(1); ok {
		t.Fatalf("nil LookupRecord found a record")
	}
	if s := tr.Snapshots(); s != nil {
		t.Fatalf("nil Snapshots = %v", s)
	}
	if s := tr.SLOStatuses(time.Now()); s != nil {
		t.Fatalf("nil SLOStatuses = %v", s)
	}
	if n := tr.TripCount(ReasonSaturation); n != 0 {
		t.Fatalf("nil TripCount = %d", n)
	}
}

func TestRingRetainsAndWraps(t *testing.T) {
	tr := New("ring", Options{Ring: 8})
	for i := 0; i < 5; i++ {
		tr.Finish(okRecord(tr, "tiny", int64(i+1)))
	}
	recs := tr.Recent()
	if len(recs) != 5 {
		t.Fatalf("Recent len = %d, want 5", len(recs))
	}
	for i, r := range recs {
		if r.ID != uint64(i+1) {
			t.Fatalf("recs[%d].ID = %d, want oldest-first %d", i, r.ID, i+1)
		}
	}
	for i := 0; i < 10; i++ {
		tr.Finish(okRecord(tr, "tiny", 1))
	}
	recs = tr.Recent()
	if len(recs) != 8 {
		t.Fatalf("wrapped Recent len = %d, want ring size 8", len(recs))
	}
	if tr.Dropped() != 15-8 {
		t.Fatalf("Dropped = %d, want 7", tr.Dropped())
	}
	if recs[len(recs)-1].ID != 15 {
		t.Fatalf("newest retained ID = %d, want 15", recs[len(recs)-1].ID)
	}
	// Lookup hits retained IDs, misses overwritten ones.
	if _, ok := tr.LookupRecord(15); !ok {
		t.Fatalf("LookupRecord(15) missed a retained record")
	}
	if _, ok := tr.LookupRecord(1); ok {
		t.Fatalf("LookupRecord(1) found an overwritten record")
	}
}

func TestFinishConcurrent(t *testing.T) {
	tr := New("conc", Options{Ring: 64})
	// Each record's DurNs equals its ID, so a torn record — fields from two
	// commits that landed on one slot — shows up as a mismatch.
	stop := make(chan struct{})
	torn := make(chan Record, 1)
	go func() {
		for {
			select {
			case <-stop:
				close(torn)
				return
			default:
			}
			for _, r := range tr.Recent() {
				if r.DurNs != int64(r.ID) {
					torn <- r
					close(torn)
					return
				}
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				id := tr.NextID()
				tr.Finish(Record{ID: id, DurNs: int64(id), Tier: "small", Outcome: OutcomeOK})
			}
		}()
	}
	wg.Wait()
	close(stop)
	if r, ok := <-torn; ok {
		t.Fatalf("torn record: ID %d with DurNs %d", r.ID, r.DurNs)
	}
	if tr.Committed() != 1600 {
		t.Fatalf("Committed = %d, want 1600", tr.Committed())
	}
	if n := len(tr.Recent()); n != 64 {
		t.Fatalf("Recent len = %d, want 64", n)
	}
}

func TestOutcomeCountsAndTierP99(t *testing.T) {
	tr := New("counts", Options{})
	// p99RefreshEvery observations trigger the cached-p99 refresh.
	for i := 0; i < p99RefreshEvery; i++ {
		tr.Finish(okRecord(tr, "large", int64(time.Millisecond)))
	}
	tr.Finish(Record{ID: tr.NextID(), Tier: "large", Outcome: OutcomeSaturated})
	counts := tr.OutcomeCounts()
	if counts[OutcomeOK] != p99RefreshEvery || counts[OutcomeSaturated] != 1 {
		t.Fatalf("counts = ok:%d saturated:%d", counts[OutcomeOK], counts[OutcomeSaturated])
	}
	p99 := tr.TierP99("large")
	if p99 <= 0 || p99 == math.MaxInt64 {
		t.Fatalf("TierP99 = %d, want a finite refreshed bound", p99)
	}
	// The log-spaced histogram returns a bucket upper bound ≥ the true value.
	if p99 < int64(time.Millisecond) {
		t.Fatalf("TierP99 = %d below the observed 1ms", p99)
	}
	if got := tr.TierP99("tiny"); got != 0 {
		t.Fatalf("untouched tier p99 = %d, want 0", got)
	}
}

func TestSaturationTripsSnapshot(t *testing.T) {
	tr := New("sat", Options{Ring: 16})
	for i := 0; i < 10; i++ {
		tr.Finish(okRecord(tr, "large", 100))
	}
	bad := Record{ID: tr.NextID(), Tier: "large", Outcome: OutcomeSaturated, Err: "engine: admission queue full"}
	tr.Finish(bad)
	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	s := snaps[0]
	if s.Reason != ReasonSaturation {
		t.Fatalf("reason = %s", s.Reason)
	}
	if s.Trigger.ID != bad.ID {
		t.Fatalf("trigger ID = %d, want %d", s.Trigger.ID, bad.ID)
	}
	// The ring is written before the trip, so the frozen evidence includes
	// the failing request itself.
	found := false
	for _, r := range s.Records {
		if r.ID == bad.ID && r.Outcome == OutcomeSaturated {
			found = true
		}
	}
	if !found {
		t.Fatalf("frozen snapshot does not contain the saturated request")
	}
	// A burst within the refractory window collapses into the same snapshot.
	for i := 0; i < 50; i++ {
		tr.Finish(Record{ID: tr.NextID(), Tier: "large", Outcome: OutcomeSaturated})
	}
	if n := len(tr.Snapshots()); n != 1 {
		t.Fatalf("burst froze %d snapshots, want 1 (refractory window)", n)
	}
	if tr.TripCount(ReasonSaturation) != 51 {
		t.Fatalf("TripCount = %d, want 51", tr.TripCount(ReasonSaturation))
	}
}

func TestLatencyAnomalyTripsAfterWarmup(t *testing.T) {
	tr := New("lat", Options{AnomalyMultiple: 4, AnomalyMinSamples: p99RefreshEvery})
	// Cold tier: a huge latency before AnomalyMinSamples must NOT trip.
	tr.Finish(okRecord(tr, "large", int64(time.Hour)))
	if n := len(tr.Snapshots()); n != 0 {
		t.Fatalf("cold tier tripped %d snapshots", n)
	}
	for i := 0; i < p99RefreshEvery; i++ {
		tr.Finish(okRecord(tr, "small", int64(time.Millisecond)))
	}
	// Warm tier: ~1ms p99 bucket bound, 4× multiple → a 1s straggler trips.
	tr.Finish(okRecord(tr, "small", int64(time.Second)))
	snaps := tr.Snapshots()
	if len(snaps) != 1 || snaps[0].Reason != ReasonLatency {
		t.Fatalf("snapshots = %+v, want one latency trip", snaps)
	}
}

func TestConformanceNotifyFreezesAllTracers(t *testing.T) {
	a := New("conf-a-"+t.Name(), Options{})
	b := New("conf-b-"+t.Name(), Options{})
	Publish(a)
	Publish(b)
	a.Finish(okRecord(a, "tiny", 1))
	NotifyConformanceFailure("cake 64x64x64: traffic")
	for _, tr := range []*Tracer{a, b} {
		snaps := tr.Snapshots()
		if len(snaps) != 1 || snaps[0].Reason != ReasonConformance {
			t.Fatalf("%s snapshots = %+v", tr.Name(), snaps)
		}
		if snaps[0].Detail != "cake 64x64x64: traffic" {
			t.Fatalf("detail = %q", snaps[0].Detail)
		}
	}
}

func TestSLOBurnRateAndBudget(t *testing.T) {
	tr := New("slo", Options{Objectives: []Objective{{
		Tier:    "large",
		Target:  time.Millisecond,
		Goal:    0.9,
		Windows: []time.Duration{time.Minute},
	}}})
	now := time.Now()
	// 90 good (fast, OK), 10 bad (over target), interleaved.
	for i := 0; i < 100; i++ {
		dur := int64(100 * time.Microsecond)
		if i%10 == 0 {
			dur = int64(10 * time.Millisecond)
		}
		tr.Finish(Record{
			ID: tr.NextID(), StartNs: now.UnixNano(), DurNs: dur,
			Tier: "large", Outcome: OutcomeOK,
		})
	}
	// Off-tier traffic must not count.
	tr.Finish(Record{ID: tr.NextID(), StartNs: now.UnixNano(), DurNs: 1, Tier: "tiny", Outcome: OutcomeOK})

	sts := tr.SLOStatuses(now)
	if len(sts) != 1 {
		t.Fatalf("statuses = %d", len(sts))
	}
	st := sts[0]
	if st.Name != "tier=large" {
		t.Fatalf("derived name = %q", st.Name)
	}
	if st.Good != 90 || st.Bad != 10 {
		t.Fatalf("lifetime good/bad = %d/%d, want 90/10", st.Good, st.Bad)
	}
	// Budget: bad/((1-goal)·total) = 10/(0.1·100) = 1 → remaining 0.
	if math.Abs(st.BudgetRemaining) > 1e-9 {
		t.Fatalf("budget remaining = %g, want 0", st.BudgetRemaining)
	}
	if len(st.Windows) != 1 {
		t.Fatalf("windows = %d", len(st.Windows))
	}
	ws := st.Windows[0]
	if ws.Good != 90 || ws.Bad != 10 {
		t.Fatalf("window good/bad = %d/%d, want 90/10", ws.Good, ws.Bad)
	}
	// Burn rate: badFraction/(1-goal) = 0.1/0.1 = 1.
	if math.Abs(ws.BurnRate-1) > 1e-9 {
		t.Fatalf("burn rate = %g, want 1", ws.BurnRate)
	}
}

func TestSLOWindowSlides(t *testing.T) {
	win := time.Second
	tr := New("slide", Options{Objectives: []Objective{{
		Goal: 0.999, Windows: []time.Duration{win},
	}}})
	base := time.Now()
	tr.Finish(Record{ID: tr.NextID(), StartNs: base.UnixNano(), DurNs: 1, Tier: "tiny", Outcome: OutcomeError})
	bad := func(at time.Time) int64 {
		sts := tr.SLOStatuses(at)
		return sts[0].Windows[0].Bad
	}
	if got := bad(base); got != 1 {
		t.Fatalf("bad inside window = %d, want 1", got)
	}
	if got := bad(base.Add(3 * win)); got != 0 {
		t.Fatalf("bad after window slid past = %d, want 0", got)
	}
	// Lifetime counters are not windowed.
	if st := tr.SLOStatuses(base.Add(3 * win))[0]; st.Bad != 1 {
		t.Fatalf("lifetime bad = %d, want 1", st.Bad)
	}
}

func TestObjectiveDefaults(t *testing.T) {
	s := newSLOTracker(Objective{Tenant: "acme"})
	if s.obj.Goal != DefaultGoal {
		t.Fatalf("goal = %g", s.obj.Goal)
	}
	if s.obj.Name != "tenant=acme" {
		t.Fatalf("name = %q", s.obj.Name)
	}
	if len(s.windows) != len(DefaultWindows) {
		t.Fatalf("windows = %d, want %d", len(s.windows), len(DefaultWindows))
	}
}

func TestPublishLookupAndReplace(t *testing.T) {
	name := "pub-" + t.Name()
	a := New(name, Options{})
	Publish(a)
	got, ok := Lookup(name)
	if !ok || got != a {
		t.Fatalf("Lookup after Publish = %v, %v", got, ok)
	}
	b := New(name, Options{})
	Publish(b)
	if got, _ = Lookup(name); got != b {
		t.Fatalf("re-Publish did not replace the tracer")
	}
}

// debugGet drives a registered endpoint through obs.DebugHandler exactly the
// way a live host serves it.
func debugGet(t *testing.T, path string) (int, []byte) {
	t.Helper()
	srv := httptest.NewServer(obs.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func TestRequestsEndpoint(t *testing.T) {
	name := "ep-" + t.Name()
	tr := New(name, Options{})
	Publish(tr)
	want := okRecord(tr, "small", 12345)
	want.Tenant = "acme"
	tr.Finish(want)

	code, body := debugGet(t, "/debug/requests.json?engine="+name)
	if code != http.StatusOK {
		t.Fatalf("status = %d: %s", code, body)
	}
	var page struct {
		Engines []struct {
			Engine  string `json:"engine"`
			Records []struct {
				ID      uint64 `json:"id"`
				Tier    string `json:"tier"`
				Outcome string `json:"outcome"`
			} `json:"records"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if len(page.Engines) != 1 || page.Engines[0].Engine != name {
		t.Fatalf("engines = %+v", page.Engines)
	}
	if len(page.Engines[0].Records) != 1 || page.Engines[0].Records[0].Outcome != "ok" {
		t.Fatalf("records = %+v", page.Engines[0].Records)
	}

	// ?reqid= returns the exact record.
	code, body = debugGet(t, "/debug/requests.json?engine="+name+"&reqid=1")
	if code != http.StatusOK {
		t.Fatalf("reqid status = %d: %s", code, body)
	}
	var one struct {
		Engine string `json:"engine"`
		Record Record `json:"record"`
	}
	if err := json.Unmarshal(body, &one); err != nil {
		t.Fatalf("invalid reqid JSON: %v\n%s", err, body)
	}
	if one.Record.ID != want.ID || one.Record.DurNs != want.DurNs || one.Record.Tenant != "acme" {
		t.Fatalf("record = %+v, want %+v", one.Record, want)
	}

	if code, _ := debugGet(t, "/debug/requests.json?engine="+name+"&reqid=99999"); code != http.StatusNotFound {
		t.Fatalf("missing reqid status = %d, want 404", code)
	}
	if code, _ := debugGet(t, "/debug/requests.json?engine=no-such-engine-xyz"); code != http.StatusNotFound {
		t.Fatalf("unknown engine status = %d, want 404", code)
	}
}

func TestSLOAndSnapshotEndpoints(t *testing.T) {
	name := "slo-ep-" + t.Name()
	tr := New(name, Options{Objectives: []Objective{{Tier: "tiny", Goal: 0.99, Target: time.Second}}})
	Publish(tr)
	tr.Finish(okRecord(tr, "tiny", 10))
	tr.Finish(Record{ID: tr.NextID(), Tier: "tiny", Outcome: OutcomeSaturated})

	code, body := debugGet(t, "/debug/slo.json?engine="+name)
	if code != http.StatusOK {
		t.Fatalf("slo status = %d", code)
	}
	var slo struct {
		Engines []struct {
			Engine string   `json:"engine"`
			SLOs   []Status `json:"slos"`
		} `json:"engines"`
	}
	if err := json.Unmarshal(body, &slo); err != nil {
		t.Fatalf("invalid slo JSON: %v\n%s", err, body)
	}
	if len(slo.Engines) != 1 || len(slo.Engines[0].SLOs) != 1 {
		t.Fatalf("slo page = %+v", slo)
	}
	if got := slo.Engines[0].SLOs[0]; got.Good != 1 || got.Bad != 1 {
		t.Fatalf("slo good/bad = %d/%d", got.Good, got.Bad)
	}

	code, body = debugGet(t, "/debug/snapshots.json?engine="+name)
	if code != http.StatusOK {
		t.Fatalf("snapshots status = %d", code)
	}
	var snaps struct {
		Snapshots []Snapshot `json:"snapshots"`
	}
	if err := json.Unmarshal(body, &snaps); err != nil {
		t.Fatalf("invalid snapshots JSON: %v\n%s", err, body)
	}
	if len(snaps.Snapshots) != 1 || snaps.Snapshots[0].Reason != ReasonSaturation {
		t.Fatalf("snapshots = %+v", snaps.Snapshots)
	}
}

func TestPrometheusFamilies(t *testing.T) {
	name := "prom-" + t.Name()
	tr := New(name, Options{Objectives: []Objective{{Goal: 0.999}}})
	Publish(tr)
	tr.Finish(okRecord(tr, "tiny", 10))
	var sb strings.Builder
	WritePrometheus(&sb)
	out := sb.String()
	for _, family := range []string{
		"cake_requests_total", "cake_flight_recorder_dropped_total",
		"cake_snapshot_trips_total", "cake_slo_burn_rate", "cake_slo_budget_remaining",
	} {
		if !strings.Contains(out, family) {
			t.Fatalf("Prometheus output missing %s:\n%s", family, out)
		}
	}
	if !strings.Contains(out, `engine="`+name+`"`) {
		t.Fatalf("Prometheus output missing engine label %q", name)
	}
}

func TestTraceEventsCarryRequestContext(t *testing.T) {
	tr := New("trace-"+t.Name(), Options{})
	rec := okRecord(tr, "large", int64(2*time.Millisecond))
	rec.AdmitWaitNs = int64(time.Millisecond)
	rec.QueueDepth = 3
	tr.Finish(rec)
	events := tr.traceEvents()
	if len(events) != 2 {
		t.Fatalf("events = %d, want request + admit-wait", len(events))
	}
	if events[0].Name != "request" || events[0].LaneName != "large" {
		t.Fatalf("first event = %+v", events[0])
	}
	if events[0].Args["reqid"] != rec.ID || events[0].Args["outcome"] != "ok" {
		t.Fatalf("request args = %+v", events[0].Args)
	}
	if events[1].Name != "admit-wait" || events[1].Args["queue_depth"] != rec.QueueDepth {
		t.Fatalf("admit-wait event = %+v", events[1])
	}
}

func TestSetLoggerCapturesSnapshotTrip(t *testing.T) {
	var mu sync.Mutex
	var sb strings.Builder
	h := slog.NewTextHandler(lockedWriter{&mu, &sb}, &slog.HandlerOptions{Level: slog.LevelInfo})
	SetLogger(slog.New(h))
	defer SetLogger(nil)

	tr := New("logged-"+t.Name(), Options{})
	tr.Finish(Record{ID: tr.NextID(), Tier: "tiny", Outcome: OutcomeSaturated})
	mu.Lock()
	out := sb.String()
	mu.Unlock()
	if !strings.Contains(out, "flight recorder snapshot frozen") {
		t.Fatalf("snapshot trip not logged: %q", out)
	}
	// Restoring the default silences further emission.
	SetLogger(nil)
	if L().Enabled(context.Background(), slog.LevelError) {
		t.Fatalf("default logger should discard everything")
	}
}

type lockedWriter struct {
	mu *sync.Mutex
	sb *strings.Builder
}

func (w lockedWriter) Write(p []byte) (int, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.sb.Write(p)
}
