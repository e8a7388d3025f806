// The engine's one request path. Every GEMM the engine serves — single,
// batched, strided, against fresh or resident weights — is a Request run by
// Do: a single GEMM is a batch of one, and a resident operand is just
// another B source. The batch takes ONE admission-queue slot and ONE lease
// for its lifetime, dispatches on the tier of its widest call, and streams
// its calls through core's batch loop on that tier's config, which carries
// shared-operand packed panels across calls. The flight
// recorder sees ONE record per request, carrying the call count and the
// amortized per-call latency.
package engine

import (
	"fmt"
	"strings"
	"sync"
	"time"
	"unsafe"

	"repro/internal/core"
	"repro/internal/matrix"
	"repro/internal/obs/reqtrace"
)

// Request is one engine request: C[i] = α·op(A[i])×op(B_i) + β·C[i] for
// every i, executed in order under one admission and one lease, with
// results bit-exact to running the calls one request at a time.
//
// The right operand comes from exactly one source: B holds one matrix per
// call (a call whose B is the same *Matrix as its predecessor's reuses the
// packed panels), or Resident names an operand registered with RegisterB,
// pinned once for the whole request so eviction cannot split it. TransB
// applies only to B: a resident operand's orientation is fixed at
// registration. Transposes and scalars are request-uniform; set Alpha and
// Beta explicitly (C += A×B is Alpha 1, Beta 1).
type Request[T matrix.Scalar] struct {
	// Tenant labels the request record and routes it into any per-tenant
	// SLO objectives declared in Options.Trace. Empty is the anonymous
	// tenant.
	Tenant string

	C, A     []*matrix.Matrix[T]
	B        []*matrix.Matrix[T]
	Resident string

	TransA, TransB bool
	Alpha, Beta    T
}

// callDims validates call i of r against its B source — r.B[i], or the
// pinned resident operand op — and returns the call's logical extents.
func (r *Request[T]) callDims(i int, op *residentOperand[T]) (m, k, n int, err error) {
	var kb int
	if op != nil {
		kb, n = op[TierLarge].Dims()
	} else {
		kb, n = core.OpDims(r.B[i], r.TransB)
	}
	if m, k, err = core.CheckDims(r.C[i], r.A[i], r.TransA, kb, n); err != nil {
		return 0, 0, 0, fmt.Errorf("engine: call %d: %w", i, err)
	}
	return m, k, n, nil
}

// Do runs a request through the engine: pin the resident operand if there
// is one, validate every call, classify the request by its widest call,
// admit it on that tier's cores and run it on leased state. Safe for any
// number of concurrent callers.
//
// A panic inside the request — in a pooled pack or compute unit, re-raised
// on this goroutine by the pool, or in a unit run inline on this goroutine —
// is returned as the request's error. By then the deferred settlements below
// Do have run: the resident pin is released, the admitted cores are
// returned and the leased executor is dropped, not cached.
func Do[T matrix.Scalar](e *Engine, r Request[T]) (st core.Stats, err error) {
	start := time.Now()
	rec := reqtrace.Record{
		ID:         e.trace.NextID(),
		StartNs:    start.UnixNano(),
		Tenant:     e.labels.own(r.Tenant),
		ResidentID: e.labels.own(r.Resident),
		Outcome:    reqtrace.OutcomeUnset,
	}
	defer func() {
		if p := recover(); p != nil {
			st, err = core.Stats{}, fmt.Errorf("engine: request panicked: %v", p)
		}
		e.finishRecord(&rec, start, st, err)
	}()
	return do(e, &rec, &r)
}

// do is Do's body between opening and finishing the request record: check
// the request's shape and pin its resident operand, if any, for dispatch.
func do[T matrix.Scalar](e *Engine, rec *reqtrace.Record, r *Request[T]) (core.Stats, error) {
	if err := core.CheckSources(r.C, r.A, r.B, r.Resident != "", r.TransB); err != nil {
		return core.Stats{}, err
	}
	if len(r.C) > 1 {
		rec.BatchCalls = int32(len(r.C))
	}
	// Close waits for this request before it shuts the pool down.
	e.requests.RLock()
	defer e.requests.RUnlock()
	if e.closedFast.Load() {
		return core.Stats{}, ErrClosed
	}
	if r.Resident == "" {
		return dispatch(e, rec, r, nil)
	}
	h, err := acquireOperand[T](e, rec.ResidentID)
	if err != nil {
		rec.Resident = reqtrace.ResidentMiss
		return core.Stats{}, err
	}
	rec.Resident = reqtrace.ResidentHit
	defer h.Release()
	return dispatch(e, rec, r, h.op)
}

// dispatch validates every call of r against its B source (op is the pinned
// resident operand, nil for per-call B), classifies the request by its
// widest call, and runs it down that tier's path.
func dispatch[T matrix.Scalar](e *Engine, rec *reqtrace.Record, r *Request[T], op *residentOperand[T]) (core.Stats, error) {
	elemBytes := int(unsafe.Sizeof(*new(T)))
	t := TierTiny
	for i := range r.C {
		m, k, n, err := r.callDims(i, op)
		if err != nil {
			return core.Stats{}, err
		}
		if i == 0 {
			rec.M, rec.K, rec.N = int32(m), int32(k), int32(n)
		}
		// The request holds its admission slot and lease for every call, so
		// dispatch must satisfy the *widest* call's cache arithmetic: tiers
		// are ordered by footprint and TierFor is monotone in it.
		t = max(t, e.TierFor(m, k, n, elemBytes))
	}
	// TierFor's arithmetic guarantees a resident operand carries the
	// layout of any tier it can land on (see residentOperand); fall through
	// to the next tier up if a pathological platform geometry ever breaks
	// that.
	var rb *core.ResidentB[T]
	if op != nil {
		for op[t] == nil {
			t++
		}
		rb = op[t]
	}
	rec.Tier = t.String()

	st, err := run(e, t, rec, core.Batch[T]{C: r.C, A: r.A, B: r.B, TransA: r.TransA, TransB: r.TransB, Alpha: r.Alpha, Beta: r.Beta}, rb)
	if err != nil {
		return st, err
	}
	if op != nil {
		e.resident.AccountAvoided(st.ResidentBElems * int64(elemBytes))
	}
	return st, nil
}

// labels holds the engine's own copies of the labels requests carry (tenant,
// resident id). Records keep these copies, never the caller's strings: a
// label shares its Request with the operand slices, escape analysis treats
// a struct as one value, and a label kept on the heap would drag a
// single-call request's slice literals there with it. Distinct labels are
// few (they name tenants and registered weights); past maxLabels, new ones
// are copied per request instead of kept.
type labels struct {
	mu sync.Mutex
	m  map[string]string
}

const maxLabels = 1024

// own returns the engine's copy of s.
func (l *labels) own(s string) string {
	if s == "" {
		return ""
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if v, ok := l.m[s]; ok {
		return v
	}
	v := strings.Clone(s)
	if l.m == nil {
		l.m = make(map[string]string)
	}
	if len(l.m) < maxLabels {
		l.m[v] = v
	}
	return v
}
