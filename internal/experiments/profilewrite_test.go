package experiments

import (
	"path/filepath"
	"testing"
)

// TestProfileRoundtrip pins the minimal pprof writer against the minimal
// reader: whatever WriteProfile emits, ReadProfileSummary must recover —
// sample type, unit, total, and per-function flat values.
func TestProfileRoundtrip(t *testing.T) {
	frames := []Frame{
		{Name: "repro/internal/kernel.kernel8x8[go.shape.float64]", Value: 700},
		{Name: "repro/internal/matrix.(*Matrix).At", Value: 200},
		{Name: "runtime.memmove", Value: 100},
	}
	path := filepath.Join(t.TempDir(), "cpu-test.pprof")
	if err := WriteProfile(path, "cpu", "nanoseconds", frames); err != nil {
		t.Fatal(err)
	}
	sum, err := ReadProfileSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if sum.SampleType != "cpu" || sum.Unit != "nanoseconds" {
		t.Errorf("sample type %q/%q, want cpu/nanoseconds", sum.SampleType, sum.Unit)
	}
	if sum.Total != 1000 {
		t.Errorf("total %d, want 1000", sum.Total)
	}
	if len(sum.Frames) != len(frames) {
		t.Fatalf("%d frames, want %d: %+v", len(sum.Frames), len(frames), sum.Frames)
	}
	// ReadProfileSummary sorts by value descending; the writer input above is
	// already in that order, so the roundtrip must match element-wise.
	for i, f := range sum.Frames {
		if f != frames[i] {
			t.Errorf("frame %d = %+v, want %+v", i, f, frames[i])
		}
	}
}

// TestMarshalProfileIsGzip: corpus profiles are stored gzipped (the pprof
// tool's wire default); the reader's magic sniff must take the gzip path.
func TestMarshalProfileIsGzip(t *testing.T) {
	data, err := MarshalProfile("cpu", "nanoseconds", []Frame{{Name: "f", Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 2 || data[0] != 0x1f || data[1] != 0x8b {
		t.Fatalf("MarshalProfile output is not gzipped (leading bytes % x)", data[:2])
	}
}
