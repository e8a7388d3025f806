// Package reqtrace is the request-lifecycle observability layer for the
// concurrent GEMM engine. The executor-level spans (internal/obs) verify the
// paper's constant-bandwidth property per phase; this package makes the
// *serving* path observable at the same grain: every engine call gets a
// cheap atomic request ID and a completed-request record covering admission
// wait, queue depth at entry, executor lease (new vs reused), the tier
// chosen, resident-panel hit/miss, pack/compute time, and outcome.
// GEMMbench's argument (PAPERS.md) applies directly — per-run capture with
// full context, not averages — and "DGEMM performance is data-dependent"
// shows why the tail needs per-request evidence: latency varies with shape
// and data, so an aggregate histogram cannot say *which* request blew the
// budget or why.
//
// Three layers, all always-on and allocation-free at steady state:
//
//   - A flight recorder: a fixed-size ring of completed request records per
//     engine (same atomic-cursor discipline as the obs span recorder, plus a
//     per-slot lock held only for the record copy, so a reader never sees a
//     torn record; the record path carries the //cake:hotpath annotation,
//     so cake-vet proves it never allocates).
//   - Anomaly-triggered snapshots: on saturation, a conformance failure, or
//     a request slower than a configurable multiple of its tier's rolling
//     p99, the ring is frozen into an immutable JSON-servable snapshot —
//     the evidence is captured at the moment of the anomaly, not after the
//     ring has wrapped past it.
//   - An SLO engine: per-tier and per-tenant latency/error objectives with
//     multi-window burn-rate counters and error-budget accounting, exported
//     as the "cake_slo" expvar, Prometheus families, and /debug/slo.json.
//
// Structured logging rides along via log/slog: engine lifecycle, resident
// evictions, SLO breaches and snapshot trips emit through an opt-in handler
// (silent by default — see SetLogger).
package reqtrace

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/obs"
)

// Outcome classifies how a request left the engine. The zero value is
// deliberately not OK: a Record whose Outcome was never set is visible as
// unset rather than silently counting as a success (cake-vet's reqoutcome
// analyzer additionally requires every Record literal to set the field).
type Outcome uint8

const (
	// OutcomeUnset marks a record whose producer never decided an outcome.
	OutcomeUnset Outcome = iota
	// OutcomeOK is a request that completed and returned its result.
	OutcomeOK
	// OutcomeSaturated is a rejection at the admission queue bound
	// (engine.ErrSaturated).
	OutcomeSaturated
	// OutcomeClosed is a request that arrived after engine Close
	// (engine.ErrClosed).
	OutcomeClosed
	// OutcomeEvicted is a resident-operand request whose weights were lost
	// to LRU eviction (engine.ErrOperandEvicted).
	OutcomeEvicted
	// OutcomeError is any other failure (dimension mismatch, plan error, …).
	OutcomeError
	outcomeCount
)

func (o Outcome) String() string {
	switch o {
	case OutcomeUnset:
		return "unset"
	case OutcomeOK:
		return "ok"
	case OutcomeSaturated:
		return "saturated"
	case OutcomeClosed:
		return "closed"
	case OutcomeEvicted:
		return "evicted"
	case OutcomeError:
		return "error"
	}
	return "unknown"
}

// MarshalJSON renders the outcome as its name, so /debug/requests.json says
// "saturated" instead of 2.
func (o Outcome) MarshalJSON() ([]byte, error) { return []byte(`"` + o.String() + `"`), nil }

// UnmarshalJSON parses the name form back, so records served by the debug
// endpoints round-trip into Record.
func (o *Outcome) UnmarshalJSON(b []byte) error {
	for c := OutcomeUnset; c < outcomeCount; c++ {
		if string(b) == `"`+c.String()+`"` {
			*o = c
			return nil
		}
	}
	return fmt.Errorf("reqtrace: unknown outcome %s", b)
}

// Lease classifies how a request's executor (or direct scratch) lease was
// served.
type Lease uint8

const (
	// LeaseNone: the request failed before leasing (rejected, closed).
	LeaseNone Lease = iota
	// LeaseNew: the lease was served by constructing fresh state.
	LeaseNew
	// LeaseReused: the lease came warm from the per-tier pool.
	LeaseReused
)

func (l Lease) String() string {
	switch l {
	case LeaseNew:
		return "new"
	case LeaseReused:
		return "reused"
	}
	return "none"
}

// MarshalJSON renders the lease kind as its name.
func (l Lease) MarshalJSON() ([]byte, error) { return []byte(`"` + l.String() + `"`), nil }

// UnmarshalJSON parses the name form back.
func (l *Lease) UnmarshalJSON(b []byte) error {
	for c := LeaseNone; c <= LeaseReused; c++ {
		if string(b) == `"`+c.String()+`"` {
			*l = c
			return nil
		}
	}
	return fmt.Errorf("reqtrace: unknown lease kind %s", b)
}

// Residency classifies a request's use of the resident-operand store.
type Residency uint8

const (
	// ResidentNone: the request packed its own operands.
	ResidentNone Residency = iota
	// ResidentHit: served from pre-packed resident panels.
	ResidentHit
	// ResidentMiss: asked for a resident operand that was gone (evicted or
	// never registered).
	ResidentMiss
)

func (r Residency) String() string {
	switch r {
	case ResidentHit:
		return "hit"
	case ResidentMiss:
		return "miss"
	}
	return "none"
}

// MarshalJSON renders the residency as its name.
func (r Residency) MarshalJSON() ([]byte, error) { return []byte(`"` + r.String() + `"`), nil }

// UnmarshalJSON parses the name form back.
func (r *Residency) UnmarshalJSON(b []byte) error {
	for c := ResidentNone; c <= ResidentMiss; c++ {
		if string(b) == `"`+c.String()+`"` {
			*r = c
			return nil
		}
	}
	return fmt.Errorf("reqtrace: unknown residency %s", b)
}

// Record is one completed engine request — the unit of the flight recorder.
// Producers must set Outcome explicitly (enforced by cake-vet's reqoutcome
// analyzer); every other field defaults to a meaningful zero. Records are
// committed by value into a preallocated ring, so the struct must stay free
// of pointers to producer-owned mutable state (strings are fine: committing
// copies only the header).
type Record struct {
	ID      uint64 `json:"id"`
	StartNs int64  `json:"start_ns"` // UnixNano at engine entry
	DurNs   int64  `json:"dur_ns"`   // entry to completion, queueing included

	Tier   string `json:"tier"`             // "tiny" | "small" | "large"; "" when dispatch never happened
	Tenant string `json:"tenant,omitempty"` // caller-supplied serving label

	AdmitWaitNs int64 `json:"admit_wait_ns"`   // time from entry to holding cores
	QueueDepth  int32 `json:"queue_depth"`     // admission waiters ahead at entry
	Cores       int32 `json:"cores,omitempty"` // pool cores the request was granted; 0 on the tiny tier or before admission

	M int32 `json:"m"`
	K int32 `json:"k"`
	N int32 `json:"n"`

	Lease      Lease     `json:"lease"`
	Resident   Residency `json:"resident"`
	ResidentID string    `json:"resident_id,omitempty"`

	PackNs    int64 `json:"pack_ns"`
	ComputeNs int64 `json:"compute_ns"`

	// Batched requests: a request of several calls produces ONE record for
	// the whole batch (one admission, one lease), with BatchCalls carrying
	// how many GEMMs it folded and AmortNs the amortized per-call latency
	// DurNs/BatchCalls. Both are zero for single-call requests, keeping
	// their records byte-compatible with pre-batch history.
	BatchCalls int32 `json:"batch_calls,omitempty"`
	AmortNs    int64 `json:"amort_ns,omitempty"`

	Outcome Outcome `json:"outcome"`
	Err     string  `json:"error,omitempty"`
}

// EndNs returns the record's wall-clock completion time.
func (r Record) EndNs() int64 { return r.StartNs + r.DurNs }

// Options configures a Tracer. The zero value enables the flight recorder
// with defaults and no objectives.
type Options struct {
	// Disable turns the whole layer off: the engine threads a nil tracer and
	// pays one predictable branch per request (the same nil-receiver
	// discipline as the span recorder).
	Disable bool
	// Ring is the number of completed records the flight recorder retains
	// (per engine). 0 means DefaultRing.
	Ring int
	// AnomalyMultiple freezes a snapshot when a request's latency exceeds
	// this multiple of its tier's rolling p99. 0 means DefaultAnomalyMultiple;
	// negative disables latency-anomaly snapshots.
	AnomalyMultiple float64
	// AnomalyMinSamples arms the latency anomaly only after a tier has this
	// many observations (a cold histogram's p99 is noise). 0 means
	// DefaultAnomalyMinSamples.
	AnomalyMinSamples int
	// MaxSnapshots bounds the retained frozen rings; older snapshots are
	// dropped first. 0 means DefaultMaxSnapshots.
	MaxSnapshots int
	// Objectives are the SLOs tracked per request (per tier and/or tenant).
	Objectives []Objective
}

const (
	// DefaultRing retains the most recent 4096 completed requests, ~1 MiB.
	DefaultRing = 4096
	// DefaultAnomalyMultiple: a request 8× slower than its tier's rolling
	// p99 is an anomaly worth freezing evidence for.
	DefaultAnomalyMultiple = 8
	// DefaultAnomalyMinSamples gates the latency anomaly until the tier's
	// histogram has enough observations for a stable p99.
	DefaultAnomalyMinSamples = 256
	// DefaultMaxSnapshots bounds retained frozen rings.
	DefaultMaxSnapshots = 8
	// p99RefreshEvery is the cadence (in observations) of the cached rolling
	// p99 refresh — the hot path reads one atomic instead of walking 37
	// histogram buckets per request.
	p99RefreshEvery = 64
)

// tierIndex maps a record's tier label onto the tracer's fixed per-tier
// slots. Unknown labels (including "", a request that failed before
// dispatch) share the last slot.
//
//cake:hotpath
func tierIndex(tier string) int {
	switch tier {
	case "tiny":
		return 0
	case "small":
		return 1
	case "large":
		return 2
	}
	return 3
}

const tierSlots = 4

var tierNames = [tierSlots]string{"tiny", "small", "large", "other"}

// latTrack is one tier's rolling latency state: the log-spaced histogram and
// a cached p99 bound the anomaly check reads with one atomic load.
type latTrack struct {
	hist obs.Histogram
	p99  atomic.Int64 // cached Quantile(0.99) in ns; 0 until first refresh
}

// refresh recomputes the cached p99. An overflow-bucket p99 (+Inf) is
// stored as MaxInt64, which no finite latency exceeds — the anomaly check
// goes quiet rather than tripping on every request.
func (lt *latTrack) refresh() {
	p := lt.hist.P99()
	if math.IsInf(p, 1) || p >= math.MaxInt64 {
		lt.p99.Store(math.MaxInt64)
		return
	}
	lt.p99.Store(int64(p))
}

// ringSlot is one flight-recorder slot. Its lock is held only while a record
// is copied in or out, so Finish contends only with a reader of the same
// slot or with a writer whose request landed on it one ring lap later. seq
// is the commit index + 1 of the record the slot holds (0 when empty): a
// writer never replaces a newer record with an older one, and a reader takes
// only the records of the lap it asked for.
type ringSlot struct {
	mu  sync.Mutex
	seq int64
	rec Record
}

// Tracer is one engine's request-lifecycle recorder: ID source, flight
// recorder ring, per-tier latency tracking, SLO trackers, and the snapshot
// store. All methods are safe for concurrent use; a nil *Tracer is valid
// and records nothing.
type Tracer struct {
	name    string
	ring    []ringSlot
	cursor  atomic.Int64
	nextID  atomic.Uint64
	tiers   [tierSlots]latTrack
	outs    [outcomeCount]atomic.Int64
	slos    []*sloTracker
	anomaly int64 // latency multiple ×1000 (fixed point); ≤0 disabled
	minSamp int64

	snapMu   sync.Mutex
	snaps    []Snapshot
	maxSnaps int
	trips    [reasonCount]atomic.Int64
}

// New builds a tracer named after its engine. Returns nil when
// opts.Disable — callers thread the nil tracer and every method degrades to
// a no-op.
func New(name string, opts Options) *Tracer {
	if opts.Disable {
		return nil
	}
	ring := opts.Ring
	if ring <= 0 {
		ring = DefaultRing
	}
	mult := opts.AnomalyMultiple
	if mult == 0 {
		mult = DefaultAnomalyMultiple
	}
	minSamp := opts.AnomalyMinSamples
	if minSamp <= 0 {
		minSamp = DefaultAnomalyMinSamples
	}
	maxSnaps := opts.MaxSnapshots
	if maxSnaps <= 0 {
		maxSnaps = DefaultMaxSnapshots
	}
	t := &Tracer{
		name:     name,
		ring:     make([]ringSlot, ring),
		minSamp:  int64(minSamp),
		maxSnaps: maxSnaps,
	}
	if mult > 0 {
		t.anomaly = int64(mult * 1000)
	}
	for _, o := range opts.Objectives {
		t.slos = append(t.slos, newSLOTracker(o))
	}
	return t
}

// Name returns the engine label the tracer was built with.
func (t *Tracer) Name() string {
	if t == nil {
		return ""
	}
	return t.name
}

// NextID issues a request ID: one atomic add, strictly increasing from 1.
func (t *Tracer) NextID() uint64 {
	if t == nil {
		return 0
	}
	return t.nextID.Add(1)
}

// Finish commits one completed request: ring write, outcome and per-tier
// latency accounting, SLO windows, and the anomaly checks. This is the
// engine's per-request record path — allocation-free (cake-vet-enforced),
// one uncontended slot lock and a few atomic adds at steady state. Snapshot trips
// leave the hot path immediately (rare by construction: saturation bursts
// and >8×p99 stragglers).
//
//cake:hotpath
func (t *Tracer) Finish(rec Record) {
	if t == nil {
		return
	}
	i := t.cursor.Add(1) - 1
	slot := &t.ring[i%int64(len(t.ring))]
	slot.mu.Lock()
	if slot.seq <= i {
		slot.seq, slot.rec = i+1, rec
	}
	slot.mu.Unlock()

	if rec.Outcome < outcomeCount {
		t.outs[rec.Outcome].Add(1)
	}
	ti := tierIndex(rec.Tier)
	lt := &t.tiers[ti]
	lt.hist.Observe(rec.DurNs)
	n := lt.hist.Count()
	if n%p99RefreshEvery == 0 {
		lt.refresh()
	}

	nowNs := rec.StartNs + rec.DurNs
	for _, s := range t.slos {
		s.observe(rec, nowNs)
	}

	if rec.Outcome == OutcomeSaturated {
		t.trip(ReasonSaturation, rec)
		return
	}
	if t.anomaly > 0 && n >= t.minSamp {
		if p99 := lt.p99.Load(); p99 > 0 && p99 < math.MaxInt64 && rec.DurNs > p99*t.anomaly/1000 {
			t.trip(ReasonLatency, rec)
		}
	}
}

// Committed returns how many records have ever been committed.
func (t *Tracer) Committed() int64 {
	if t == nil {
		return 0
	}
	return t.cursor.Load()
}

// Dropped returns how many committed records the ring has overwritten.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	if n := t.cursor.Load(); n > int64(len(t.ring)) {
		return n - int64(len(t.ring))
	}
	return 0
}

// Recent returns a copy of the retained records, oldest first. A record
// whose commit is still in flight is left out rather than read half-written.
func (t *Tracer) Recent() []Record {
	if t == nil {
		return nil
	}
	n := t.cursor.Load()
	if n == 0 {
		return nil
	}
	cap64 := int64(len(t.ring))
	lo := max(0, n-cap64)
	out := make([]Record, 0, n-lo)
	for i := lo; i < n; i++ {
		slot := &t.ring[i%cap64]
		slot.mu.Lock()
		if slot.seq == i+1 {
			out = append(out, slot.rec)
		}
		slot.mu.Unlock()
	}
	return out
}

// LookupRecord finds a retained record by request ID.
func (t *Tracer) LookupRecord(id uint64) (Record, bool) {
	if t == nil {
		return Record{Outcome: OutcomeUnset}, false
	}
	for _, r := range t.Recent() {
		if r.ID == id {
			return r, true
		}
	}
	return Record{Outcome: OutcomeUnset}, false
}

// TierP99 returns the tier's rolling p99 bound in nanoseconds (0 until
// enough samples have arrived to refresh the cache).
func (t *Tracer) TierP99(tier string) int64 {
	if t == nil {
		return 0
	}
	return t.tiers[tierIndex(tier)].p99.Load()
}

// OutcomeCounts snapshots the per-outcome totals, indexed by Outcome.
func (t *Tracer) OutcomeCounts() [int(outcomeCount)]int64 {
	var out [int(outcomeCount)]int64
	if t == nil {
		return out
	}
	for i := range t.outs {
		out[i] = t.outs[i].Load()
	}
	return out
}
