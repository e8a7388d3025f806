package reqtrace

import (
	"sync/atomic"
	"time"
)

// Objective declares one SLO over the engine's request stream: "Goal
// fraction of matching requests complete OK within Target". Matching is by
// tier and/or tenant; empty selectors match everything, so one Objective
// can cover the whole engine, one tier, one tenant, or one (tier, tenant)
// pair. A zero Target makes it an availability-only objective (any OK
// outcome is good regardless of latency).
type Objective struct {
	// Name identifies the objective in exports. Empty derives a name from
	// the selectors ("tier=large", "tenant=acme", "all").
	Name string
	// Tier restricts the objective to one dispatch tier ("tiny", "small",
	// "large"); empty matches all tiers.
	Tier string
	// Tenant restricts the objective to one tenant label; empty matches all.
	Tenant string
	// Target is the latency bound a good request must meet. 0 means
	// availability-only.
	Target time.Duration
	// Goal is the required good fraction, in (0, 1). Out-of-range values
	// fall back to DefaultGoal.
	Goal float64
	// Windows are the burn-rate windows. Empty means DefaultWindows.
	Windows []time.Duration
}

const (
	// DefaultGoal is the objective goal when none (or an invalid one) is
	// declared: 99.9% of matching requests good.
	DefaultGoal = 0.999
	// sloWindowBuckets is the resolution of each sliding window: 32 buckets,
	// so a 5m window rotates in ~9.4s steps. Power of two keeps the hot-path
	// index a mask-free modulo of small cost.
	sloWindowBuckets = 32
)

// DefaultWindows are the burn-rate windows used when an Objective declares
// none: a fast window that catches hard outages and a slow one that catches
// simmering burn (the classic multi-window pairing).
var DefaultWindows = []time.Duration{5 * time.Minute, time.Hour}

// sloBucket is one slot of a sliding window. idx holds the absolute bucket
// number the slot currently represents; a writer arriving in a newer bucket
// CAS-claims the slot and resets the counters. The reset is racy by a few
// counts against concurrent adders — acceptable for burn-rate accounting,
// in exchange for a lock-free hot path.
type sloBucket struct {
	idx  atomic.Int64
	good atomic.Int64
	bad  atomic.Int64
}

// sloWindow is one sliding burn-rate window.
type sloWindow struct {
	span     time.Duration
	bucketNs int64
	buckets  [sloWindowBuckets]sloBucket
	breached atomic.Bool // last rendered burn state, for transition logging
}

// observe folds one request into the window's current bucket.
func (w *sloWindow) observe(good bool, nowNs int64) {
	abs := nowNs / w.bucketNs
	b := &w.buckets[abs%sloWindowBuckets]
	if cur := b.idx.Load(); cur != abs {
		if b.idx.CompareAndSwap(cur, abs) {
			b.good.Store(0)
			b.bad.Store(0)
		}
	}
	if good {
		b.good.Add(1)
	} else {
		b.bad.Add(1)
	}
}

// totals sums the buckets still inside the window at nowNs.
func (w *sloWindow) totals(nowNs int64) (good, bad int64) {
	abs := nowNs / w.bucketNs
	min := abs - sloWindowBuckets + 1
	for i := range w.buckets {
		b := &w.buckets[i]
		if ix := b.idx.Load(); ix >= min && ix <= abs {
			good += b.good.Load()
			bad += b.bad.Load()
		}
	}
	return good, bad
}

// sloTracker is one Objective's live state: lifetime error-budget counters
// plus the sliding windows.
type sloTracker struct {
	obj      Objective
	targetNs int64
	good     atomic.Int64
	bad      atomic.Int64
	windows  []*sloWindow
}

func newSLOTracker(o Objective) *sloTracker {
	if !(o.Goal > 0 && o.Goal < 1) {
		o.Goal = DefaultGoal
	}
	if o.Name == "" {
		switch {
		case o.Tier != "" && o.Tenant != "":
			o.Name = "tier=" + o.Tier + ",tenant=" + o.Tenant
		case o.Tier != "":
			o.Name = "tier=" + o.Tier
		case o.Tenant != "":
			o.Name = "tenant=" + o.Tenant
		default:
			o.Name = "all"
		}
	}
	wins := o.Windows
	if len(wins) == 0 {
		wins = DefaultWindows
	}
	t := &sloTracker{obj: o, targetNs: int64(o.Target)}
	for _, span := range wins {
		if span <= 0 {
			continue
		}
		bucketNs := max(int64(span)/sloWindowBuckets, 1)
		t.windows = append(t.windows, &sloWindow{span: span, bucketNs: bucketNs})
	}
	return t
}

// observe folds one completed request into the objective, if it matches.
func (s *sloTracker) observe(rec Record, nowNs int64) {
	if s.obj.Tier != "" && rec.Tier != s.obj.Tier {
		return
	}
	if s.obj.Tenant != "" && rec.Tenant != s.obj.Tenant {
		return
	}
	good := rec.Outcome == OutcomeOK && (s.targetNs <= 0 || rec.DurNs <= s.targetNs)
	if good {
		s.good.Add(1)
	} else {
		s.bad.Add(1)
	}
	for _, w := range s.windows {
		w.observe(good, nowNs)
	}
}

// WindowStatus is one burn-rate window's rendered state.
//
// BurnRate is badFraction / (1 - Goal): the rate at which the error budget
// is being spent, normalized so 1.0 means "spending exactly the budget" —
// sustained burn > 1 over the window exhausts the budget before the period
// ends, burn ≥ 1/(1-Goal) means every request is bad.
type WindowStatus struct {
	Window      string  `json:"window"`
	Good        int64   `json:"good"`
	Bad         int64   `json:"bad"`
	BadFraction float64 `json:"bad_fraction"`
	BurnRate    float64 `json:"burn_rate"`
}

// Status is one objective's rendered state for /debug/slo.json and the
// cake_slo expvar.
//
// BudgetRemaining is the lifetime error budget left as a fraction of the
// budget: 1 - bad / ((1-Goal) · total). 1 means untouched, 0 exhausted,
// negative overspent.
type Status struct {
	Name            string         `json:"name"`
	Tier            string         `json:"tier,omitempty"`
	Tenant          string         `json:"tenant,omitempty"`
	TargetNs        int64          `json:"target_ns,omitempty"`
	Goal            float64        `json:"goal"`
	Good            int64          `json:"good"`
	Bad             int64          `json:"bad"`
	BudgetRemaining float64        `json:"budget_remaining"`
	Windows         []WindowStatus `json:"windows"`
}

// status renders the tracker at nowNs, logging burn-state transitions
// (burn > 1 over a window = breach) through the package logger. Render-time
// logging keeps slog (and its interface boxing) off the request hot path.
func (s *sloTracker) status(nowNs int64) Status {
	st := Status{
		Name:     s.obj.Name,
		Tier:     s.obj.Tier,
		Tenant:   s.obj.Tenant,
		TargetNs: s.targetNs,
		Goal:     s.obj.Goal,
		Good:     s.good.Load(),
		Bad:      s.bad.Load(),
	}
	budget := (1 - s.obj.Goal) * float64(st.Good+st.Bad)
	if budget > 0 {
		st.BudgetRemaining = 1 - float64(st.Bad)/budget
	} else {
		st.BudgetRemaining = 1
	}
	for _, w := range s.windows {
		good, bad := w.totals(nowNs)
		ws := WindowStatus{Window: w.span.String(), Good: good, Bad: bad}
		if total := good + bad; total > 0 {
			ws.BadFraction = float64(bad) / float64(total)
			ws.BurnRate = ws.BadFraction / (1 - s.obj.Goal)
		}
		burning := ws.BurnRate > 1
		if w.breached.Swap(burning) != burning {
			if burning {
				L().Warn("SLO burn-rate breach",
					"objective", s.obj.Name, "window", ws.Window,
					"burn_rate", ws.BurnRate, "bad", bad, "good", good)
			} else {
				L().Info("SLO burn recovered",
					"objective", s.obj.Name, "window", ws.Window)
			}
		}
		st.Windows = append(st.Windows, ws)
	}
	return st
}

// SLOStatuses renders every objective's current state (burn rates computed
// at now).
func (t *Tracer) SLOStatuses(now time.Time) []Status {
	if t == nil {
		return nil
	}
	nowNs := now.UnixNano()
	out := make([]Status, 0, len(t.slos))
	for _, s := range t.slos {
		out = append(out, s.status(nowNs))
	}
	return out
}
