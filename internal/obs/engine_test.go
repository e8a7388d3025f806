package obs_test

// The engine and resident families are rows that reqtrace registers in the
// obs metric table from one published engine entry; these tests drive them
// through the obs render and expvar, as a host scrapes them.

import (
	"expvar"
	"strings"
	"testing"

	"repro/internal/engine/resident"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

func zeroCounters() obs.EngineStats { return obs.EngineStats{} }
func zeroResident() resident.Stats  { return resident.Stats{} }

func TestPublishEngineExpvarAndReplace(t *testing.T) {
	calls := 0
	reqtrace.Publish(reqtrace.Engine{Name: "test-engine", Resident: zeroResident, Counters: func() obs.EngineStats {
		calls++
		return obs.EngineStats{InFlight: 3, TierTiny: 7}
	}})
	v := expvar.Get("cake_engine")
	if v == nil {
		t.Fatal("cake_engine expvar not published")
	}
	s := v.String()
	if !strings.Contains(s, "test-engine") || !strings.Contains(s, "\"TierTiny\":7") {
		t.Fatalf("cake_engine JSON missing fields: %s", s)
	}
	if calls == 0 {
		t.Fatal("stats callback never ran")
	}

	// Re-publishing the same name must swap the callback, not panic on a
	// duplicate expvar and not keep serving the stale closure.
	reqtrace.Publish(reqtrace.Engine{Name: "test-engine", Resident: zeroResident, Counters: func() obs.EngineStats { return obs.EngineStats{InFlight: 9} }})
	if s := expvar.Get("cake_engine").String(); !strings.Contains(s, "\"InFlight\":9") {
		t.Fatalf("replaced callback not visible: %s", s)
	}
}

func TestWritePrometheusEngineFamilies(t *testing.T) {
	reqtrace.Publish(reqtrace.Engine{Name: "prom-engine", Resident: zeroResident, Counters: func() obs.EngineStats {
		return obs.EngineStats{
			InFlight: 1, Queued: 2, QueuedTotal: 30, Rejected: 4,
			TierTiny: 100, TierSmall: 50, TierLarge: 5,
			LeaseNew: 6, LeaseReused: 60,
		}
	}})
	var b strings.Builder
	obs.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE cake_engine_in_flight gauge",
		`cake_engine_in_flight{engine="prom-engine"} 1`,
		`cake_engine_queue_depth{engine="prom-engine"} 2`,
		"# TYPE cake_engine_queued_total counter",
		`cake_engine_queued_total{engine="prom-engine"} 30`,
		`cake_engine_rejected_total{engine="prom-engine"} 4`,
		`cake_engine_tier_hits_total{engine="prom-engine",tier="tiny"} 100`,
		`cake_engine_tier_hits_total{engine="prom-engine",tier="small"} 50`,
		`cake_engine_tier_hits_total{engine="prom-engine",tier="large"} 5`,
		`cake_engine_leases_total{engine="prom-engine",kind="new"} 6`,
		`cake_engine_leases_total{engine="prom-engine",kind="reused"} 60`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}

func TestPublishResidentExpvarAndReplace(t *testing.T) {
	calls := 0
	reqtrace.Publish(reqtrace.Engine{Name: "test-store", Counters: zeroCounters, Resident: func() resident.Stats {
		calls++
		return resident.Stats{Entries: 3, Bytes: 4096}
	}})
	v := expvar.Get("cake_resident")
	if v == nil {
		t.Fatal("cake_resident expvar not published")
	}
	s := v.String()
	if !strings.Contains(s, "test-store") || !strings.Contains(s, "\"Bytes\":4096") {
		t.Fatalf("cake_resident JSON missing fields: %s", s)
	}
	if calls == 0 {
		t.Fatal("stats callback never ran")
	}

	// Re-publishing the same name swaps the callback (engine restart) with
	// no duplicate-expvar panic and no stale closure.
	reqtrace.Publish(reqtrace.Engine{Name: "test-store", Counters: zeroCounters, Resident: func() resident.Stats { return resident.Stats{Entries: 9} }})
	if s := expvar.Get("cake_resident").String(); !strings.Contains(s, "\"Entries\":9") {
		t.Fatalf("replaced callback not visible: %s", s)
	}
}

func TestWritePrometheusResidentFamilies(t *testing.T) {
	reqtrace.Publish(reqtrace.Engine{Name: "prom-store", Counters: zeroCounters, Resident: func() resident.Stats {
		return resident.Stats{
			Entries: 2, Pinned: 1, Bytes: 1024, Budget: 4096,
			Hits: 10, Misses: 3, Evictions: 2, AvoidedPackBytes: 777,
		}
	}})
	var b strings.Builder
	obs.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE cake_resident_operands gauge",
		`cake_resident_operands{engine="prom-store"} 2`,
		`cake_resident_pinned{engine="prom-store"} 1`,
		`cake_resident_bytes{engine="prom-store"} 1024`,
		`cake_resident_budget_bytes{engine="prom-store"} 4096`,
		"# TYPE cake_resident_hits_total counter",
		`cake_resident_hits_total{engine="prom-store"} 10`,
		`cake_resident_misses_total{engine="prom-store"} 3`,
		`cake_resident_evictions_total{engine="prom-store"} 2`,
		`cake_resident_avoided_pack_bytes_total{engine="prom-store"} 777`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
}
