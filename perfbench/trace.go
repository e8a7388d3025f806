package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Span names, one per layer boundary the benchmark times from outside.
const (
	spanRequest          uint8 = iota // one op, as its caller sees it
	spanEngine                        // the engine GEMM call
	spanPack                          // core.Stats.PackNanos of that call
	spanCompute                       // core.Stats.ComputeNanos of that call
	spanResidentRegister              // EngineRegisterB of a weight update
	spanResidentRelease               // EngineReleaseB of a superseded version
	spanKinds
)

var spanNames = [spanKinds]string{"request", "engine", "core.pack", "kernel.compute", "resident.register", "resident.release"}

// span is one recorded interval, in nanoseconds from the window's start.
type span struct {
	kind       uint8
	caller     uint8
	req        uint32 // request number within the caller; spans of one request share it
	parent     int32  // index of the parent span in the same recorder, -1 for a request
	start, end int64
}

// recorder keeps one caller's spans in memory, up to a fixed capacity,
// and sums every layer's self time (its span minus the part its children
// cover) over all spans, kept or not.
type recorder struct {
	caller uint8
	spans  []span
	reqs   uint32
	selfNs [spanKinds]int64
	counts [spanKinds]int64
}

// spansPerCaller bounds the spans each caller keeps for writing out.
const spansPerCaller = 1 << 15

func newRecorder(caller int) *recorder {
	return &recorder{caller: uint8(caller), spans: make([]span, 0, spansPerCaller)}
}

// room reports whether a request's n spans fit; a request is kept whole
// or not at all.
func (r *recorder) room(n int) bool { return cap(r.spans)-len(r.spans) >= n }

func (r *recorder) add(kind uint8, parent int32, start, end int64) int32 {
	r.spans = append(r.spans, span{kind: kind, caller: r.caller, req: r.reqs, parent: parent, start: start, end: end})
	return int32(len(r.spans) - 1)
}

func (r *recorder) self(kind uint8, ns int64) {
	r.selfNs[kind] += max(ns, 0)
	r.counts[kind]++
}

// gemm records a GEMM request [t0, t1] whose engine call ran [c0, c1]
// and returned pack, compute and overlap times. The pack child starts with
// the call; the compute child starts where the pack ends less the overlap,
// so the children cover pack+compute−overlap of the call.
func (r *recorder) gemm(t0, c0, c1, t1, pack, compute, overlap int64) {
	pEnd := min(c0+pack, c1)
	cStart := max(c0, pEnd-overlap)
	cEnd := min(cStart+compute, c1)
	if r.room(4) {
		req := r.add(spanRequest, -1, t0, t1)
		call := r.add(spanEngine, req, c0, c1)
		r.add(spanPack, call, c0, pEnd)
		r.add(spanCompute, call, cStart, cEnd)
	}
	r.self(spanRequest, (t1-t0)-(c1-c0))
	r.self(spanEngine, (c1-c0)-(max(pEnd, cEnd)-c0))
	r.self(spanPack, pEnd-c0)
	r.self(spanCompute, cEnd-cStart)
	r.reqs++
}

// update records a weight-update request [t0, t1] with its register call
// [g0, g1] and, when it released the superseded version itself, the
// release call [q0, q1] (q1 == 0 otherwise).
func (r *recorder) update(t0, g0, g1, q0, q1, t1 int64) {
	if r.room(3) {
		req := r.add(spanRequest, -1, t0, t1)
		r.add(spanResidentRegister, req, g0, g1)
		if q1 > 0 {
			r.add(spanResidentRelease, req, q0, q1)
		}
	}
	children := g1 - g0
	r.self(spanResidentRegister, g1-g0)
	if q1 > 0 {
		children += q1 - q0
		r.self(spanResidentRelease, q1-q0)
	}
	r.self(spanRequest, (t1-t0)-children)
	r.reqs++
}

// meanSelfUs is a layer's mean self time per span, in microseconds.
func meanSelfUs(recs []*recorder, kind uint8) float64 {
	var ns, n int64
	for _, r := range recs {
		ns += r.selfNs[kind]
		n += r.counts[kind]
	}
	if n == 0 {
		return 0
	}
	return float64(ns) / float64(n) / 1e3
}

// traceEvent is one complete ("X") event of the Chrome trace format.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// writeSpans writes the kept spans of all callers as a Chrome trace (one
// thread per caller) to path, creating its directory.
func writeSpans(path string, recs []*recorder) (n int, err error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	// bufio.Writer keeps its first error, so Flush reports any write's.
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	w.WriteString(`{"displayTimeUnit":"ns","traceEvents":[` + "\n")
	for _, r := range recs {
		for _, s := range r.spans {
			if n > 0 {
				w.WriteString(",")
			}
			enc.Encode(traceEvent{
				Name: spanNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 1, Tid: int(s.caller),
				Args: map[string]any{"req": s.req, "parent": s.parent},
			})
			n++
		}
	}
	w.WriteString("]}\n")
	if err := w.Flush(); err != nil {
		return n, fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("spans: %w", err)
	}
	return n, nil
}
