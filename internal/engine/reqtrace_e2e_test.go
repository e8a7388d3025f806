package engine

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

// TestRequestLifecycleEndToEnd drives a mixed workload — tiny, small, large
// and resident requests plus an injected saturation burst — through one
// engine and checks the whole observability chain: every flight-recorder
// record carries its lifecycle fields, the saturation burst freezes a
// snapshot containing the failing requests, and /debug/requests.json?reqid=
// serves the exact record back.
func TestRequestLifecycleEndToEnd(t *testing.T) {
	name := "e2e-" + t.Name()
	e := newTestEngine(t, 2, Options{
		Name:     name,
		MaxQueue: 1,
		Trace: reqtrace.Options{
			Ring: 512,
			// Latency trips would be nondeterministic under -race; this test
			// injects saturation, so keep the latency anomaly out of the way.
			AnomalyMultiple: -1,
		},
	})
	if e.Tracer() == nil {
		t.Fatal("engine built without a tracer")
	}

	rng := rand.New(rand.NewSource(42))
	mk := func(m, k int) *matrix.Matrix[float32] {
		x := matrix.New[float32](m, k)
		x.Randomize(rng)
		return x
	}

	// Mixed serve phase: every tier plus the resident path, under a tenant
	// label so per-tenant fields are exercised too.
	shapes := [][3]int{{16, 16, 16}, {64, 48, 80}, {200, 160, 220}}
	wantTiers := []string{"tiny", "small", "large"}
	for round := 0; round < 3; round++ {
		for i, sh := range shapes {
			m, k, n := sh[0], sh[1], sh[2]
			a, b := mk(m, k), mk(k, n)
			c := matrix.New[float32](m, n)
			if _, err := Do(e, Request[float32]{Tenant: "acme", C: mats(c), A: mats(a), B: mats(b), Alpha: 1}); err != nil {
				t.Fatalf("round %d %s: %v", round, wantTiers[i], err)
			}
		}
	}
	const residentID = "e2e-weights"
	if err := RegisterB(e, residentID, mk(48, 56)); err != nil {
		t.Fatal(err)
	}
	defer e.ReleaseB(residentID)
	r := Request[float32]{Tenant: "acme", C: mats(matrix.New[float32](32, 56)), A: mats(mk(32, 48)), Resident: residentID, Alpha: 1}
	if _, err := Do(e, r); err != nil {
		t.Fatal(err)
	}

	// Every committed record must carry the lifecycle fields.
	recs := e.Tracer().Recent()
	if len(recs) != 10 {
		t.Fatalf("flight recorder has %d records, want 10", len(recs))
	}
	sawTier := map[string]bool{}
	sawResident := false
	for _, r := range recs {
		if r.ID == 0 {
			t.Fatalf("record without an ID: %+v", r)
		}
		if r.StartNs == 0 || r.DurNs <= 0 {
			t.Fatalf("record %d without timing: %+v", r.ID, r)
		}
		if r.Tier == "" {
			t.Fatalf("record %d without a tier: %+v", r.ID, r)
		}
		if r.Outcome != reqtrace.OutcomeOK {
			t.Fatalf("record %d outcome = %s, want ok: %+v", r.ID, r.Outcome, r)
		}
		if r.Lease == reqtrace.LeaseNone {
			t.Fatalf("completed record %d without a lease decision: %+v", r.ID, r)
		}
		if r.Tenant != "acme" {
			t.Fatalf("record %d tenant = %q: %+v", r.ID, r.Tenant, r)
		}
		if r.AdmitWaitNs < 0 || r.QueueDepth < 0 {
			t.Fatalf("record %d admission fields negative: %+v", r.ID, r)
		}
		if r.M == 0 || r.K == 0 || r.N == 0 {
			t.Fatalf("record %d without a shape: %+v", r.ID, r)
		}
		sawTier[r.Tier] = true
		if r.Resident == reqtrace.ResidentHit {
			sawResident = true
			if r.ResidentID != residentID {
				t.Fatalf("resident record %d id = %q, want %q", r.ID, r.ResidentID, residentID)
			}
		}
	}
	for _, tier := range wantTiers {
		if !sawTier[tier] {
			t.Fatalf("no record for tier %s: %v", tier, sawTier)
		}
	}
	if !sawResident {
		t.Fatal("no resident-hit record in the flight recorder")
	}

	// Pack/compute attribution reaches the records on the pooled tiers.
	var pooledTimed bool
	for _, r := range recs {
		if (r.Tier == "small" || r.Tier == "large") && r.ComputeNs > 0 {
			pooledTimed = true
		}
	}
	if !pooledTimed {
		t.Fatal("no pooled record carries compute time")
	}

	// Injected saturation burst: hold the whole machine, fill the one queue
	// slot, then throw concurrent large GEMMs at the wall. With MaxQueue=1
	// everything past the first waiter must reject with ErrSaturated.
	if _, err := e.acquire(2, 2); err != nil {
		t.Fatal(err)
	}

	la, lb := mk(200, 160), mk(160, 220)
	const burst = 8
	var wg sync.WaitGroup
	satErrs := make(chan error, burst)
	for g := 0; g < burst; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := matrix.New[float32](200, 220)
			_, err := Do(e, Request[float32]{Tenant: "acme", C: mats(c), A: mats(la), B: mats(lb), Alpha: 1})
			satErrs <- err
		}()
	}
	// With the machine held and MaxQueue=1, exactly one burst request queues
	// and the rest reject. Wait for the rejections before freeing the cores,
	// so the queued request can then complete.
	for e.Counters().Rejected < burst-1 {
		time.Sleep(time.Millisecond)
	}
	e.release(2)
	wg.Wait()
	close(satErrs)
	var saturated int
	for err := range satErrs {
		if errors.Is(err, ErrSaturated) {
			saturated++
		} else if err != nil {
			t.Fatalf("burst error = %v", err)
		}
	}
	if saturated < burst-1 {
		t.Fatalf("saturated = %d, want at least %d", saturated, burst-1)
	}

	// The burst froze a snapshot, and the frozen ring contains the failing
	// requests (the ring write happens before the trip).
	snaps := e.Tracer().Snapshots()
	if len(snaps) == 0 {
		t.Fatal("saturation burst froze no snapshot")
	}
	snap := snaps[0]
	if snap.Reason != reqtrace.ReasonSaturation {
		t.Fatalf("snapshot reason = %s", snap.Reason)
	}
	if snap.Trigger.Outcome != reqtrace.OutcomeSaturated {
		t.Fatalf("snapshot trigger = %+v", snap.Trigger)
	}
	var frozenSat int
	for _, r := range snap.Records {
		if r.Outcome == reqtrace.OutcomeSaturated {
			frozenSat++
			if r.Err == "" {
				t.Fatalf("saturated record %d without an error string: %+v", r.ID, r)
			}
		}
	}
	if frozenSat == 0 {
		t.Fatal("frozen snapshot contains no saturated request")
	}
	counts := e.Tracer().OutcomeCounts()
	if counts[reqtrace.OutcomeSaturated] != int64(saturated) {
		t.Fatalf("saturated outcome count = %d, want %d", counts[reqtrace.OutcomeSaturated], saturated)
	}

	// The debug endpoint serves the exact record by ID, through the same
	// handler a live host mounts (NewEngine published the tracer).
	target := recs[len(recs)-1]
	srv := httptest.NewServer(obs.DebugHandler())
	defer srv.Close()
	resp, err := http.Get(fmt.Sprintf("%s/debug/requests.json?engine=%s&reqid=%d", srv.URL, name, target.ID))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reqid lookup status = %d: %s", resp.StatusCode, body)
	}
	var page struct {
		Engine string          `json:"engine"`
		Record reqtrace.Record `json:"record"`
	}
	if err := json.Unmarshal(body, &page); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, body)
	}
	if page.Engine != name || page.Record != target {
		t.Fatalf("served record = %+v, want %+v", page.Record, target)
	}

	// SLO endpoint sanity for the same engine.
	resp, err = http.Get(srv.URL + "/debug/slo.json?engine=" + name)
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slo status = %d: %s", resp.StatusCode, body)
	}
	var sloPage map[string]any
	if err := json.Unmarshal(body, &sloPage); err != nil {
		t.Fatalf("slo page invalid JSON: %v\n%s", err, body)
	}
}

// TestRecordCarriesGrantedCores: a request's record names the pool cores it
// ran on, so its speed is explained. The large tier gets the whole idle
// machine and its slice beside other work; the small tier gets its slice;
// the tiny tier holds no pool cores.
func TestRecordCarriesGrantedCores(t *testing.T) {
	e := newTestEngine(t, 2, Options{Trace: reqtrace.Options{Ring: 16}})
	rng := rand.New(rand.NewSource(43))
	mk := func(m, k int) *matrix.Matrix[float32] {
		x := matrix.New[float32](m, k)
		x.Randomize(rng)
		return x
	}
	last := func(m, k, n int) reqtrace.Record {
		t.Helper()
		r := Request[float32]{C: mats(matrix.New[float32](m, n)), A: mats(mk(m, k)), B: mats(mk(k, n)), Alpha: 1}
		if _, err := Do(e, r); err != nil {
			t.Fatal(err)
		}
		recs := e.Tracer().Recent()
		return recs[len(recs)-1]
	}
	for _, tc := range []struct {
		m, k, n int
		tier    string
		cores   int32
	}{
		{16, 16, 16, "tiny", 0},
		{64, 48, 80, "small", 1},
		{200, 160, 220, "large", 2},
	} {
		if r := last(tc.m, tc.k, tc.n); r.Tier != tc.tier || r.Cores != tc.cores {
			t.Fatalf("%s request on an idle engine: record tier %q cores %d, want %d", tc.tier, r.Tier, r.Cores, tc.cores)
		}
	}
	held, err := e.acquire(1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r := last(200, 160, 220); r.Tier != "large" || r.Cores != 1 {
		t.Fatalf("large request beside a held core: record tier %q cores %d, want 1", r.Tier, r.Cores)
	}
	e.release(held)
}

// TestEngineObjectivesTrackOutcomes proves engine traffic reaches the SLO
// trackers declared in Options.Trace.
func TestEngineObjectivesTrackOutcomes(t *testing.T) {
	e := newTestEngine(t, 2, Options{
		Trace: reqtrace.Options{
			Objectives: []reqtrace.Objective{{Tier: "tiny", Goal: 0.5}},
		},
	})
	rng := rand.New(rand.NewSource(7))
	a := matrix.New[float32](16, 16)
	a.Randomize(rng)
	for i := 0; i < 4; i++ {
		if _, err := Do(e, Request[float32]{C: mats(matrix.New[float32](16, 16)), A: mats(a), B: mats(a), Alpha: 1, Beta: 1}); err != nil {
			t.Fatal(err)
		}
	}
	sts := e.Tracer().SLOStatuses(time.Now())
	if len(sts) != 1 {
		t.Fatalf("statuses = %d", len(sts))
	}
	if sts[0].Good != 4 || sts[0].Bad != 0 {
		t.Fatalf("good/bad = %d/%d, want 4/0", sts[0].Good, sts[0].Bad)
	}
}

// TestEngineTraceDisabled proves the engine serves correctly with a nil
// tracer and no records are produced.
func TestEngineTraceDisabled(t *testing.T) {
	e := newTestEngine(t, 2, Options{Trace: reqtrace.Options{Disable: true}})
	if e.Tracer() != nil {
		t.Fatal("Disable did not yield a nil tracer")
	}
	rng := rand.New(rand.NewSource(8))
	a, b := matrix.New[float32](64, 48), matrix.New[float32](48, 56)
	a.Randomize(rng)
	b.Randomize(rng)
	c := matrix.New[float32](64, 56)
	if _, err := Do(e, Request[float32]{C: mats(c), A: mats(a), B: mats(b), Alpha: 1, Beta: 1}); err != nil {
		t.Fatal(err)
	}
	want := matrix.New[float32](64, 56)
	matrix.NaiveGemm(want, a, b)
	if !c.AlmostEqual(want, 48, 1e-4) {
		t.Fatal("disabled-trace engine result wrong")
	}
	if got := e.Tracer().Recent(); got != nil {
		t.Fatalf("nil tracer produced records: %v", got)
	}
}

// TestLabelChurn registers and serves more distinct weights, under more
// distinct tenants, than the tracer's label table holds (1024), the way a
// server whose weight versions keep minting IDs does. Warm requests on the
// newest labels must still allocate nothing, and the flight recorder must
// render each record's own labels or reqtrace.ReplacedLabel, never another
// request's.
func TestLabelChurn(t *testing.T) {
	const distinct = 1100
	e := newTestEngine(t, 2, Options{Trace: reqtrace.Options{Ring: 2 * distinct}})
	b := matrix.New[float32](8, 8)
	c, a := matrix.New[float32](8, 8), matrix.New[float32](8, 8)
	serve := func(tenant, id string) {
		if _, err := Do(e, Request[float32]{Tenant: tenant, C: []*matrix.Matrix[float32]{c},
			A: []*matrix.Matrix[float32]{a}, Resident: id, Alpha: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var tenant, id string
	for i := range distinct {
		tenant, id = fmt.Sprintf("t%d", i), fmt.Sprintf("w%d.v1", i)
		if err := RegisterB(e, id, b); err != nil {
			t.Fatal(err)
		}
		serve(tenant, id)
		if i < distinct-1 {
			if err := e.ReleaseB(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !raceEnabled { // sync.Pool drops leases at random under -race
		if got := testing.AllocsPerRun(50, func() { serve(tenant, id) }); got != 0 {
			t.Errorf("warm request on label #%d: %.1f allocations, want 0", distinct, got)
		}
	}

	recs := e.Tracer().Recent()
	replaced := 0
	for i, r := range recs[:distinct] {
		for _, f := range [][2]string{{r.Tenant, fmt.Sprintf("t%d", i)}, {r.ResidentID, fmt.Sprintf("w%d.v1", i)}} {
			switch f[0] {
			case f[1]:
			case reqtrace.ReplacedLabel:
				replaced++
			default:
				t.Fatalf("record %d renders label %q, want %q or the placeholder", r.ID, f[0], f[1])
			}
		}
	}
	if replaced == 0 {
		t.Fatalf("no label of %d records was replaced: the table did not churn", distinct)
	}
	if last := recs[len(recs)-1]; last.Tenant != tenant || last.ResidentID != id {
		t.Fatalf("newest record renders %q/%q, want %q/%q", last.Tenant, last.ResidentID, tenant, id)
	}
}
