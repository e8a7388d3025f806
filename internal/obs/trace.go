// Chrome Trace Event Format export. The produced JSON loads directly into
// Perfetto (https://ui.perfetto.dev) or chrome://tracing: one process per
// traced executor, one thread lane per worker, "X" complete events for
// pack/compute/unpack spans and "i" instant events for panel-cache hits —
// so a pipelined run renders pack/compute overlap and reuse at a glance.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
)

// Process names one recorder's lane group in the exported trace, e.g.
// "cake" and "goto" side by side.
type Process struct {
	Name string
	Rec  *Recorder
}

// traceEvent is one Trace Event Format entry. Timestamps and durations are
// microseconds (the format's unit).
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  *float64       `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

type traceFile struct {
	TraceEvents     []traceEvent `json:"traceEvents"`
	DisplayTimeUnit string       `json:"displayTimeUnit"`
}

// TraceEvent is an externally contributed Chrome-trace event: packages
// above obs (reqtrace's request spans) hand these to the exporter through
// RegisterTraceSource instead of depending on the writer's internal event
// shape. Timestamps and durations are microseconds, relative to the
// source's own origin (the exporter keeps each process's own zero, the same
// per-process shifting the recorder spans get).
type TraceEvent struct {
	Name     string
	TsUs     float64
	DurUs    float64 // ignored when Instant
	Instant  bool
	Lane     int    // tid within the source's process
	LaneName string // thread_name metadata, emitted once per lane
	Args     map[string]any
}

// traceSource is one registered external trace process.
type traceSource struct {
	name   string
	events func() []TraceEvent
}

var traceSources Registry[traceSource]

// RegisterTraceSource contributes an extra process to the debug server's
// Chrome-trace export (/debug/trace.json): the callback is invoked at
// download time and its events appear as one process named name alongside
// the registered recorders — request-lifecycle spans render as parent
// tracks over the per-worker phase spans. Re-registering a name replaces
// its callback, keeping its position.
func RegisterTraceSource(name string, fn func() []TraceEvent) {
	traceSources.Set(name, traceSource{name, fn})
}

// WriteChromeTrace exports the recorders' spans as Chrome Trace Event JSON.
// Each process's timestamps are shifted so its earliest span starts at
// t=0, letting sequentially captured executions (CAKE then GOTO on the
// same shape) line up for visual comparison. A recorder whose rings have
// wrapped gets a "dropped_spans" metadata event carrying the overwrite
// count, so a truncated trace announces itself instead of silently showing
// a shortened execution.
func WriteChromeTrace(w io.Writer, procs ...Process) error {
	return writeChromeTrace(w, procs, false)
}

// WriteChromeTraceAll is WriteChromeTrace plus every registered external
// trace source (request-lifecycle spans); the debug server's
// /debug/trace.json uses it.
func WriteChromeTraceAll(w io.Writer, procs ...Process) error {
	return writeChromeTrace(w, procs, true)
}

func writeChromeTrace(w io.Writer, procs []Process, withSources bool) error {
	f := traceFile{DisplayTimeUnit: "ms", TraceEvents: []traceEvent{}}
	for pi, p := range procs {
		pid := pi + 1
		f.TraceEvents = append(f.TraceEvents, traceEvent{
			Name: "process_name", Ph: "M", Pid: pid,
			Args: map[string]any{"name": p.Name},
		})
		if d := p.Rec.Dropped(); d > 0 {
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "dropped_spans", Ph: "M", Pid: pid,
				Args: map[string]any{"count": d},
			})
		}
		spans := p.Rec.Spans()
		if len(spans) == 0 {
			continue
		}
		origin := spans[0].StartNs
		seen := map[int32]bool{}
		for _, s := range spans {
			if !seen[s.Worker] {
				seen[s.Worker] = true
				name := fmt.Sprintf("worker %d", s.Worker)
				if int(s.Worker) == p.Rec.SchedulerLane() {
					name = "scheduler"
				}
				f.TraceEvents = append(f.TraceEvents, traceEvent{
					Name: "thread_name", Ph: "M", Pid: pid, Tid: int(s.Worker),
					Args: map[string]any{"name": name},
				})
			}
			ev := traceEvent{
				Name: s.Phase.String(),
				Ts:   float64(s.StartNs-origin) / 1e3,
				Pid:  pid,
				Tid:  int(s.Worker),
				Args: map[string]any{
					"block": fmt.Sprintf("(%d,%d,%d)", s.Block.M, s.Block.K, s.Block.N),
					"bytes": s.Bytes,
				},
			}
			if s.Phase == PhaseReuse {
				ev.Ph, ev.S = "i", "t"
				ev.Args["avoided_bytes"] = s.Bytes
				delete(ev.Args, "bytes")
			} else {
				ev.Ph = "X"
				dur := float64(s.DurNs) / 1e3
				ev.Dur = &dur
			}
			f.TraceEvents = append(f.TraceEvents, ev)
		}
	}
	if withSources {
		_, srcs := traceSources.Snapshot()
		for si, src := range srcs {
			pid := len(procs) + si + 1
			f.TraceEvents = append(f.TraceEvents, traceEvent{
				Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": src.name},
			})
			seen := map[int]bool{}
			for _, e := range src.events() {
				if !seen[e.Lane] && e.LaneName != "" {
					seen[e.Lane] = true
					f.TraceEvents = append(f.TraceEvents, traceEvent{
						Name: "thread_name", Ph: "M", Pid: pid, Tid: e.Lane,
						Args: map[string]any{"name": e.LaneName},
					})
				}
				ev := traceEvent{Name: e.Name, Ts: e.TsUs, Pid: pid, Tid: e.Lane, Args: e.Args}
				if e.Instant {
					ev.Ph, ev.S = "i", "t"
				} else {
					ev.Ph = "X"
					dur := e.DurUs
					ev.Dur = &dur
				}
				f.TraceEvents = append(f.TraceEvents, ev)
			}
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(f)
}
