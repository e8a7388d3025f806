package engine

import (
	"encoding/json"
	"errors"
	"expvar"
	"math/rand"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/engine/resident"
	"repro/internal/matrix"
	"repro/internal/obs"
	"repro/internal/obs/reqtrace"
)

// surfaceFamilies is every Prometheus family an engine process exports
// (the corpus families appear only once a corpus epoch is published), with
// its TYPE.
var surfaceFamilies = map[string]string{
	"cake_gemms_total":                       "counter",
	"cake_blocks_total":                      "counter",
	"cake_packed_bytes_total":                "counter",
	"cake_reused_bytes_total":                "counter",
	"cake_pack_seconds_total":                "counter",
	"cake_compute_seconds_total":             "counter",
	"cake_overlap_seconds_total":             "counter",
	"cake_phase_duration_seconds":            "histogram",
	"cake_engine_in_flight":                  "gauge",
	"cake_engine_queue_depth":                "gauge",
	"cake_engine_queued_total":               "counter",
	"cake_engine_rejected_total":             "counter",
	"cake_engine_tier_hits_total":            "counter",
	"cake_engine_leases_total":               "counter",
	"cake_resident_operands":                 "gauge",
	"cake_resident_pinned":                   "gauge",
	"cake_resident_bytes":                    "gauge",
	"cake_resident_budget_bytes":             "gauge",
	"cake_resident_hits_total":               "counter",
	"cake_resident_misses_total":             "counter",
	"cake_resident_evictions_total":          "counter",
	"cake_resident_avoided_pack_bytes_total": "counter",
	"cake_requests_total":                    "counter",
	"cake_request_tier_p99_seconds":          "gauge",
	"cake_flight_recorder_dropped_total":     "counter",
	"cake_snapshot_trips_total":              "counter",
	"cake_slo_burn_rate":                     "gauge",
	"cake_slo_budget_remaining":              "gauge",
}

// engineLabelKeys is the label-key set of every engine-labelled family.
// The request families (requests through budget_remaining) exist only for
// an engine with a tracer.
var engineLabelKeys = map[string]string{
	"cake_engine_in_flight":                  "engine",
	"cake_engine_queue_depth":                "engine",
	"cake_engine_queued_total":               "engine",
	"cake_engine_rejected_total":             "engine",
	"cake_engine_tier_hits_total":            "engine,tier",
	"cake_engine_leases_total":               "engine,kind",
	"cake_resident_operands":                 "engine",
	"cake_resident_pinned":                   "engine",
	"cake_resident_bytes":                    "engine",
	"cake_resident_budget_bytes":             "engine",
	"cake_resident_hits_total":               "engine",
	"cake_resident_misses_total":             "engine",
	"cake_resident_evictions_total":          "engine",
	"cake_resident_avoided_pack_bytes_total": "engine",
	"cake_requests_total":                    "engine,outcome",
	"cake_request_tier_p99_seconds":          "engine,tier",
	"cake_flight_recorder_dropped_total":     "engine",
	"cake_snapshot_trips_total":              "engine,reason",
	"cake_slo_burn_rate":                     "engine,objective,window",
	"cake_slo_budget_remaining":              "engine,objective",
}

var requestFamilies = []string{
	"cake_requests_total", "cake_request_tier_p99_seconds", "cake_flight_recorder_dropped_total",
	"cake_snapshot_trips_total", "cake_slo_burn_rate", "cake_slo_budget_remaining",
}

// TestTelemetryExportSurface pins what an engine exports: it drives one
// traced and one untraced engine through the same request mix (every tier,
// a resident hit and miss, a dimension error and a saturated rejection),
// then checks the /metrics families with their types and label keys, the
// value of every count series, and the expvar maps with their JSON fields.
func TestTelemetryExportSurface(t *testing.T) {
	obs.EnableMetrics()
	t.Cleanup(obs.DisableMetrics)
	traced := newTestEngine(t, 2, Options{
		Name:     "surface-traced",
		MaxQueue: 1,
		Trace: reqtrace.Options{
			AnomalyMultiple: -1, // latency trips would depend on host timing
			Objectives:      []reqtrace.Objective{{Name: "all", Target: time.Minute}},
		},
	})
	untraced := newTestEngine(t, 2, Options{
		Name:     "surface-untraced",
		MaxQueue: 1,
		Trace:    reqtrace.Options{Disable: true},
	})
	for _, e := range []*Engine{traced, untraced} {
		driveSurfaceMix(t, e)
	}

	types, samples := scrapeMetrics(t)
	for fam, typ := range surfaceFamilies {
		if got := types[fam]; got != typ {
			t.Errorf("family %s: TYPE %q, want %q", fam, got, typ)
		}
	}

	for _, e := range []*Engine{traced, untraced} {
		series := map[string]float64{}
		keys := map[string]string{}
		for _, s := range samples {
			if s.labels["engine"] != e.name {
				continue
			}
			series[s.key()] = s.value
			names := make([]string, 0, len(s.labels))
			for k := range s.labels {
				names = append(names, k)
			}
			sort.Strings(names)
			keys[s.family] = strings.Join(names, ",")
		}
		for fam, want := range engineLabelKeys {
			traceOnly := slices.Contains(requestFamilies, fam)
			got, ok := keys[fam]
			switch {
			case traceOnly && e.trace == nil:
				if ok {
					t.Errorf("%s: untraced engine exports %s", e.name, fam)
				}
			case got != want:
				t.Errorf("%s: %s label keys %q, want %q", e.name, fam, got, want)
			}
		}

		cnt, rs := e.Counters(), e.ResidentStats()
		want := map[string]float64{
			"cake_engine_in_flight":                   0,
			"cake_engine_queue_depth":                 0,
			"cake_engine_queued_total":                1,
			"cake_engine_rejected_total":              1,
			"cake_engine_tier_hits_total{tier=tiny}":  64,
			"cake_engine_tier_hits_total{tier=small}": 3,
			"cake_engine_tier_hits_total{tier=large}": 1,
			"cake_engine_leases_total{kind=new}":      float64(cnt.LeaseNew),
			"cake_engine_leases_total{kind=reused}":   float64(cnt.LeaseReused),
			"cake_resident_operands":                  1,
			"cake_resident_pinned":                    0,
			"cake_resident_bytes":                     float64(rs.Bytes),
			"cake_resident_budget_bytes":              float64(rs.Budget),
			"cake_resident_hits_total":                1,
			"cake_resident_misses_total":              1,
			"cake_resident_evictions_total":           0,
			"cake_resident_avoided_pack_bytes_total":  float64(rs.AvoidedPackBytes),
		}
		// Every successful request held one lease; how many came warm from
		// the pool depends on sync.Pool, which -race and GC make random.
		if cnt.LeaseNew+cnt.LeaseReused != 67 || cnt.LeaseNew < 3 {
			t.Errorf("%s: leases new %d + reused %d, want 67 with at least 3 new",
				e.name, cnt.LeaseNew, cnt.LeaseReused)
		}
		if rs.Bytes <= 0 || rs.AvoidedPackBytes <= 0 {
			t.Errorf("%s: resident bytes %d, avoided %d, want both positive", e.name, rs.Bytes, rs.AvoidedPackBytes)
		}
		if e.trace != nil {
			var leaseNew, leaseReused float64
			for _, r := range e.trace.Recent() {
				switch r.Lease {
				case reqtrace.LeaseNew:
					leaseNew++
				case reqtrace.LeaseReused:
					leaseReused++
				}
			}
			want["cake_engine_leases_total{kind=new}"] = leaseNew
			want["cake_engine_leases_total{kind=reused}"] = leaseReused
			for o, n := range map[string]float64{"unset": 0, "ok": 67, "saturated": 1, "closed": 0, "evicted": 0, "error": 2} {
				want["cake_requests_total{outcome="+o+"}"] = n
			}
			want["cake_flight_recorder_dropped_total"] = 0
			want["cake_snapshot_trips_total{reason=saturation}"] = 1
			want["cake_snapshot_trips_total{reason=latency}"] = 0
			want["cake_snapshot_trips_total{reason=conformance}"] = 0
		}
		for k, v := range want {
			got, ok := series[k]
			if !ok {
				t.Errorf("%s: no series %s", e.name, k)
			} else if got != v {
				t.Errorf("%s: %s = %g, want %g", e.name, k, got, v)
			}
		}
		if e.trace != nil {
			if _, ok := series["cake_request_tier_p99_seconds{tier=tiny}"]; !ok {
				t.Errorf("%s: no tiny-tier p99 after 64 tiny requests", e.name)
			}
		}
	}

	checkExpvarFields(t, "cake_engine", []string{traced.name, untraced.name},
		"InFlight,LeaseNew,LeaseReused,Queued,QueuedTotal,Rejected,TierLarge,TierSmall,TierTiny")
	checkExpvarFields(t, "cake_resident", []string{traced.name, untraced.name},
		"AvoidedPackBytes,Budget,Bytes,Entries,Evictions,Hits,Misses,Pinned")
	checkExpvarFields(t, "cake_metrics", []string{"cake"},
		"blocks,compute_duration_ns,compute_nanos,gemms,overlap_nanos,pack_duration_ns,pack_nanos,packed_bytes,reused_bytes")
	var slo map[string][]map[string]json.RawMessage
	if err := json.Unmarshal([]byte(expvar.Get("cake_slo").String()), &slo); err != nil {
		t.Fatalf("cake_slo: %v", err)
	}
	if _, ok := slo[untraced.name]; ok {
		t.Errorf("cake_slo lists the untraced engine")
	}
	if sts := slo[traced.name]; len(sts) != 1 {
		t.Errorf("cake_slo[%s] = %d objectives, want 1", traced.name, len(sts))
	} else if got := sortedKeys(sts[0]); got != "bad,budget_remaining,goal,good,name,target_ns,windows" {
		t.Errorf("cake_slo[%s] fields %s", traced.name, got)
	}
}

// driveSurfaceMix runs the parity request mix on a two-core engine with
// MaxQueue 1: 64 tiny requests (enough for the tier's p99 to refresh), one
// small and one large fresh request, a resident hit on the small tier, a
// resident miss, a dimension error, and a small request rejected at the
// full admission queue.
func driveSurfaceMix(t *testing.T, e *Engine) {
	t.Helper()
	rng := rand.New(rand.NewSource(31))
	mk := func(r, c int) *matrix.Matrix[float32] {
		x := matrix.New[float32](r, c)
		x.Randomize(rng)
		return x
	}
	gemm := func(m, k, n int, residentID string) error {
		r := Request[float32]{C: mats(matrix.New[float32](m, n)), A: mats(mk(m, k)), Resident: residentID, Alpha: 1, Beta: 1}
		if residentID == "" {
			r.B = mats(mk(k, n))
		}
		_, err := Do(e, r)
		return err
	}
	for i := 0; i < 64; i++ {
		if err := gemm(16, 16, 16, ""); err != nil {
			t.Fatal(err)
		}
	}
	if err := gemm(64, 48, 80, ""); err != nil {
		t.Fatal(err)
	}
	if err := gemm(200, 160, 220, ""); err != nil {
		t.Fatal(err)
	}
	if err := RegisterB(e, "surface-w", mk(48, 80)); err != nil {
		t.Fatal(err)
	}
	if err := gemm(64, 48, 80, "surface-w"); err != nil {
		t.Fatal(err)
	}
	if err := gemm(64, 48, 80, "surface-gone"); !errors.Is(err, resident.ErrNotRegistered) {
		t.Fatalf("resident miss = %v, want ErrNotRegistered", err)
	}
	if _, err := Do(e, Request[float32]{
		C: mats(matrix.New[float32](2, 2)), A: mats(matrix.New[float32](2, 3)), B: mats(matrix.New[float32](4, 2)),
		Alpha: 1}); err == nil {
		t.Fatal("dimension mismatch not reported")
	}

	// Hold the machine, queue one waiter, and the next request is rejected.
	held, err := e.acquire(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		n, err := e.acquire(1, 1)
		if err == nil {
			e.release(n)
		}
		waited <- err
	}()
	for {
		e.mu.Lock()
		n := len(e.waiters)
		e.mu.Unlock()
		if n == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if err := gemm(64, 48, 80, ""); !errors.Is(err, ErrSaturated) {
		t.Fatalf("request at a full queue = %v, want ErrSaturated", err)
	}
	e.release(held)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
}

// promSample is one parsed /metrics sample.
type promSample struct {
	family string
	labels map[string]string
	value  float64
}

// key names the sample by family and its labels other than engine, le and
// the histogram suffix, e.g. cake_engine_leases_total{kind=new}.
func (s promSample) key() string {
	var parts []string
	for k, v := range s.labels {
		if k != "engine" {
			parts = append(parts, k+"="+v)
		}
	}
	if len(parts) == 0 {
		return s.family
	}
	sort.Strings(parts)
	return s.family + "{" + strings.Join(parts, ",") + "}"
}

// scrapeMetrics renders obs.WritePrometheus and parses it: the TYPE of
// every family and every sample, histogram series folded onto their family.
func scrapeMetrics(t *testing.T) (types map[string]string, samples []promSample) {
	t.Helper()
	var b strings.Builder
	obs.WritePrometheus(&b)
	types = map[string]string{}
	for _, line := range strings.Split(strings.TrimSpace(b.String()), "\n") {
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name, typ, _ := strings.Cut(rest, " ")
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		s, err := parseSample(line)
		if err != nil {
			t.Fatalf("metrics line %q: %v", line, err)
		}
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if base, ok := strings.CutSuffix(s.family, suffix); ok && types[base] == "histogram" {
				s.family = base
			}
		}
		samples = append(samples, s)
	}
	return types, samples
}

// parseSample parses `name{k="v",...} value` (the label block is optional).
func parseSample(line string) (promSample, error) {
	s := promSample{labels: map[string]string{}}
	i := strings.IndexAny(line, "{ ")
	if i < 0 {
		return s, errors.New("no value")
	}
	s.family, line = line[:i], line[i:]
	if strings.HasPrefix(line, "{") {
		line = line[1:]
		for !strings.HasPrefix(line, "}") {
			k, rest, ok := strings.Cut(line, "=")
			if !ok {
				return s, errors.New("label without =")
			}
			q, err := strconv.QuotedPrefix(rest)
			if err != nil {
				return s, err
			}
			if s.labels[k], err = strconv.Unquote(q); err != nil {
				return s, err
			}
			line = strings.TrimPrefix(rest[len(q):], ",")
		}
		line = line[1:]
	}
	v, err := strconv.ParseFloat(strings.TrimSpace(line), 64)
	s.value = v
	return s, err
}

// checkExpvarFields asserts that the expvar map name holds an object for
// every key with exactly the given (sorted, comma-joined) JSON fields.
func checkExpvarFields(t *testing.T, name string, keys []string, fields string) {
	t.Helper()
	v := expvar.Get(name)
	if v == nil {
		t.Errorf("expvar %s not published", name)
		return
	}
	var m map[string]map[string]json.RawMessage
	if err := json.Unmarshal([]byte(v.String()), &m); err != nil {
		t.Errorf("expvar %s: %v", name, err)
		return
	}
	for _, k := range keys {
		obj, ok := m[k]
		if !ok {
			t.Errorf("expvar %s has no %q", name, k)
		} else if got := sortedKeys(obj); got != fields {
			t.Errorf("expvar %s[%s] fields %s, want %s", name, k, got, fields)
		}
	}
}

func sortedKeys[V any](m map[string]V) string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return strings.Join(keys, ",")
}
