package reqtrace

import "time"

// Reason classifies what froze a snapshot.
type Reason uint8

const (
	// ReasonSaturation: a request was rejected at the admission bound — the
	// ring at that instant is the evidence of what filled the queue.
	ReasonSaturation Reason = iota
	// ReasonLatency: a request ran slower than the configured multiple of
	// its tier's rolling p99.
	ReasonLatency
	// ReasonConformance: the model-conformance layer published a failing
	// report — the recent requests are the runs that drifted from the model.
	ReasonConformance
	reasonCount
)

var reasonNames = [reasonCount]string{"saturation", "latency", "conformance"}

func (r Reason) String() string { return enumName(reasonNames[:], r) }

// MarshalJSON renders the reason as its name.
func (r Reason) MarshalJSON() ([]byte, error) { return marshalEnum(reasonNames[:], r) }

// UnmarshalJSON parses the name form back, so served snapshots round-trip.
func (r *Reason) UnmarshalJSON(b []byte) error {
	return unmarshalEnum(reasonNames[:], "snapshot reason", b, r)
}

// Snapshot is one frozen flight-recorder ring: the anomaly that tripped it,
// the trigger record (zero-valued for conformance trips, which have no
// single offending request), and the retained records at the moment of the
// trip, oldest first. Snapshots are immutable once taken and served as JSON
// on /debug/snapshots.json.
type Snapshot struct {
	Engine  string   `json:"engine"`
	Reason  Reason   `json:"reason"`
	AtNs    int64    `json:"at_ns"`
	Detail  string   `json:"detail,omitempty"`
	Trigger Record   `json:"trigger"`
	Records []Record `json:"records"`
}

// tripQuietNs is the per-reason snapshot refractory window.
const tripQuietNs = int64(time.Second)

// trip freezes the ring. Off the hot path by design: trips are rare
// (saturation, extreme stragglers, conformance failures), and the copy +
// allocation here is the cost of capturing evidence exactly when the
// anomaly happened. Back-to-back trips for the same reason within
// tripQuietNs collapse into the first one's snapshot, so a saturation burst
// yields one frozen ring, not hundreds of copies of the same window.
func (t *Tracer) trip(why Reason, trigger Record, detail string) {
	t.trips[why].Add(1)
	now := time.Now().UnixNano()
	t.snapMu.Lock()
	for i := len(t.snaps) - 1; i >= 0; i-- {
		if t.snaps[i].Reason == why && now-t.snaps[i].AtNs < tripQuietNs {
			t.snapMu.Unlock()
			return
		}
	}
	snap := Snapshot{
		Engine:  t.name,
		Reason:  why,
		AtNs:    now,
		Detail:  detail,
		Trigger: trigger,
		Records: t.Recent(),
	}
	t.snaps = append(t.snaps, snap)
	if len(t.snaps) > t.maxSnaps {
		t.snaps = t.snaps[len(t.snaps)-t.maxSnaps:]
	}
	t.snapMu.Unlock()
	L().Warn("flight recorder snapshot frozen",
		"engine", t.name, "reason", why.String(), "detail", detail,
		"trigger_id", trigger.ID, "trigger_outcome", trigger.Outcome.String(),
		"records", len(snap.Records))
}

// Snapshots returns the retained frozen rings, oldest first.
func (t *Tracer) Snapshots() []Snapshot {
	if t == nil {
		return nil
	}
	t.snapMu.Lock()
	defer t.snapMu.Unlock()
	return append([]Snapshot(nil), t.snaps...)
}

// TripCount returns how many anomalies of the given reason have fired
// (including ones collapsed into an existing snapshot by the refractory
// window).
func (t *Tracer) TripCount(why Reason) int64 {
	if t == nil || why >= reasonCount {
		return 0
	}
	return t.trips[why].Load()
}

// NotifyConformanceFailure freezes a conformance snapshot on every
// published tracer: the conformance layer judges whole traced runs, not
// single requests, so the evidence is "what was the engine serving when the
// model check failed". The detail names the failing report (executor label,
// failed checks).
func NotifyConformanceFailure(detail string) {
	for _, t := range Published() {
		t.trip(ReasonConformance, Record{Outcome: OutcomeUnset}, detail)
	}
}
