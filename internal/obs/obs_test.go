package obs

import (
	"sync"
	"testing"
)

func span(start, dur, bytes int64, ph Phase) Span {
	return Span{StartNs: start, DurNs: dur, Bytes: bytes, Phase: ph}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Record(0, span(1, 1, 1, PhasePack)) // must not panic
	if got := r.Spans(); got != nil {
		t.Fatalf("nil recorder Spans() = %v, want nil", got)
	}
	if r.Dropped() != 0 || r.Workers() != 0 {
		t.Fatalf("nil recorder reported state")
	}
	r.Reset() // must not panic
}

func TestRecordAndSpans(t *testing.T) {
	r := NewRecorder(2, 8)
	r.Record(0, span(30, 5, 100, PhasePack))
	r.Record(1, span(10, 5, 200, PhaseCompute))
	r.Record(0, span(20, 5, 300, PhaseUnpack))
	got := r.Spans()
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	// Sorted by start time, worker recorded on each span.
	if got[0].StartNs != 10 || got[0].Worker != 1 || got[0].Phase != PhaseCompute {
		t.Fatalf("span[0] = %+v", got[0])
	}
	if got[1].StartNs != 20 || got[1].Worker != 0 {
		t.Fatalf("span[1] = %+v", got[1])
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d, want 0", r.Dropped())
	}
}

func TestRingWrapKeepsNewestAndCountsDropped(t *testing.T) {
	r := NewRecorder(1, 4)
	for i := int64(0); i < 10; i++ {
		r.Record(0, span(i, 1, i, PhasePack))
	}
	if d := r.Dropped(); d != 6 {
		t.Fatalf("Dropped = %d, want 6", d)
	}
	got := r.LaneSpans(0)
	if len(got) != 4 {
		t.Fatalf("retained %d spans, want 4", len(got))
	}
	// Oldest-first: spans 6, 7, 8, 9 survive.
	for i, s := range got {
		if want := int64(6 + i); s.StartNs != want {
			t.Fatalf("retained[%d].StartNs = %d, want %d", i, s.StartNs, want)
		}
	}
}

func TestSchedulerLaneAndClamping(t *testing.T) {
	r := NewRecorder(3, 4)
	if r.Workers() != 3 {
		t.Fatalf("Workers = %d, want 3", r.Workers())
	}
	if r.SchedulerLane() != 3 {
		t.Fatalf("SchedulerLane = %d, want 3", r.SchedulerLane())
	}
	r.Record(99, span(1, 0, 0, PhaseReuse)) // out of range → scheduler lane
	r.Record(-1, span(2, 0, 0, PhaseReuse))
	if got := r.LaneSpans(r.SchedulerLane()); len(got) != 2 {
		t.Fatalf("scheduler lane has %d spans, want 2", len(got))
	}
}

func TestReset(t *testing.T) {
	r := NewRecorder(1, 4)
	r.Record(0, span(1, 1, 1, PhasePack))
	r.Reset()
	if got := r.Spans(); len(got) != 0 {
		t.Fatalf("after Reset, %d spans retained", len(got))
	}
}

// TestConcurrentSameLane exercises the atomic-cursor claim: a fork running
// inline on its caller records as worker 0 while another caller's fork
// runs on pool worker 0, so two goroutines can hit the same lane at once.
func TestConcurrentSameLane(t *testing.T) {
	r := NewRecorder(1, 1<<12)
	const goroutines, each = 4, 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Record(0, span(int64(g*each+i), 1, 1, PhasePack))
			}
		}(g)
	}
	wg.Wait()
	if got := len(r.LaneSpans(0)); got != goroutines*each {
		t.Fatalf("retained %d spans, want %d", got, goroutines*each)
	}
}

func TestPhaseStrings(t *testing.T) {
	for ph, want := range map[Phase]string{
		PhasePack: "pack", PhaseCompute: "compute",
		PhaseUnpack: "unpack", PhaseReuse: "reuse", Phase(42): "unknown",
	} {
		if ph.String() != want {
			t.Fatalf("Phase(%d).String() = %q, want %q", ph, ph.String(), want)
		}
	}
}

// BenchmarkRecord documents the per-span cost of the hot recording path;
// BenchmarkRecordNil is the disabled path executors pay per
// instrumentation point.
func BenchmarkRecord(b *testing.B) {
	r := NewRecorder(1, 1<<12)
	s := span(1, 1, 64, PhasePack)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(0, s)
	}
}

func BenchmarkRecordNil(b *testing.B) {
	var r *Recorder
	s := span(1, 1, 64, PhasePack)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(0, s)
	}
}
