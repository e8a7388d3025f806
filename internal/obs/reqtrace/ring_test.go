package reqtrace

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// fullRecord returns a record with every field set to a non-zero value a
// producer could write; the test fails if Record gains a field it leaves
// zero, so the round trip below covers every field.
func fullRecord(t *testing.T, tr *Tracer) Record {
	t.Helper()
	r := Record{
		ID: tr.NextID(), StartNs: 1_700_000_000_000_000_000, DurNs: 9_000_001,
		Tier: "large", Tenant: "acme",
		AdmitWaitNs: 12_345, QueueDepth: 3, Cores: 2,
		M: 512, K: 256, N: 128,
		Lease: LeaseReused, Resident: ResidentHit, ResidentID: "w3.v7",
		PackNs: 1_234_567, ComputeNs: 7_654_321,
		BatchCalls: 4, AmortNs: 9_000_001 / 4,
		Outcome: OutcomeSaturated, Err: "engine: admission queue full",
	}
	v := reflect.ValueOf(r)
	for i := range v.NumField() {
		if v.Field(i).IsZero() {
			t.Fatalf("fullRecord leaves Record.%s zero", v.Type().Field(i).Name)
		}
	}
	return r
}

// TestRingRoundTrip: every field a producer sets reads back equal through
// Recent, LookupRecord, a snapshot's records and its trigger; AmortNs is
// derived on read from DurNs and BatchCalls.
func TestRingRoundTrip(t *testing.T) {
	tr := New("roundtrip", Options{Ring: 8})
	want := fullRecord(t, tr) // saturated, so Finish freezes a snapshot
	tr.Finish(want)

	recent := tr.Recent()
	if len(recent) != 1 || recent[0] != want {
		t.Fatalf("Recent = %+v,\nwant [%+v]", recent, want)
	}
	if got, ok := tr.LookupRecord(want.ID); !ok || got != want {
		t.Fatalf("LookupRecord = %+v, %v,\nwant %+v", got, ok, want)
	}
	snaps := tr.Snapshots()
	if len(snaps) != 1 {
		t.Fatalf("snapshots = %d, want 1", len(snaps))
	}
	if snaps[0].Trigger != want {
		t.Fatalf("snapshot trigger = %+v,\nwant %+v", snaps[0].Trigger, want)
	}
	if len(snaps[0].Records) != 1 || snaps[0].Records[0] != want {
		t.Fatalf("snapshot records = %+v,\nwant [%+v]", snaps[0].Records, want)
	}

	// Tier labels outside the three engine tiers read back as the tier
	// slot they are counted in.
	tr.Finish(Record{ID: tr.NextID(), Tier: "huge", Outcome: OutcomeOK})
	if got := tr.Recent()[1].Tier; got != "other" {
		t.Fatalf("unknown tier reads back %q, want other", got)
	}
}

// TestRingEntryLayout pins the ring's layout: its entry holds no pointer,
// string, slice, map, interface, func or channel — so the garbage collector
// never scans the ring — and a slot, lock and commit index included, stays
// within 104 B. A field added to the record stored per request has to move
// this bound on purpose.
func TestRingEntryLayout(t *testing.T) {
	var walk func(path string, ty reflect.Type)
	walk = func(path string, ty reflect.Type) {
		switch ty.Kind() {
		case reflect.Pointer, reflect.UnsafePointer, reflect.String, reflect.Slice,
			reflect.Map, reflect.Interface, reflect.Func, reflect.Chan:
			t.Errorf("%s is a %s: ring entries must be pointer-free", path, ty.Kind())
		case reflect.Struct:
			for i := range ty.NumField() {
				f := ty.Field(i)
				walk(path+"."+f.Name, f.Type)
			}
		case reflect.Array:
			walk(path+"[]", ty.Elem())
		}
	}
	walk("entry", reflect.TypeFor[entry]())

	const maxSlot = 104
	if got := unsafe.Sizeof(ringSlot{}); got > maxSlot {
		t.Errorf("ring slot = %d B, want ≤ %d B", got, maxSlot)
	}
}

// TestLabelTableBounded: interning three tables' worth of distinct labels
// keeps the table at its cap, and every handle renders either its own label
// or ReplacedLabel, never another label.
func TestLabelTableBounded(t *testing.T) {
	var lt labelTable
	handles := make([]label, 3*maxLabels)
	for i := range handles {
		lt.mu.Lock()
		handles[i] = lt.intern("L" + strconv.Itoa(i))
		n, slots := len(lt.index), len(lt.names)
		lt.mu.Unlock()
		if n > maxLabels || slots > maxLabels {
			t.Fatalf("after %d labels the table holds %d (%d slots), cap %d", i+1, n, slots, maxLabels)
		}
	}
	replaced := 0
	lt.mu.Lock()
	defer lt.mu.Unlock()
	for i, h := range handles {
		switch got := lt.name(h); got {
		case "L" + strconv.Itoa(i):
		case ReplacedLabel:
			replaced++
		default:
			t.Fatalf("handle of L%d renders %q", i, got)
		}
	}
	if replaced != len(handles)-maxLabels {
		t.Fatalf("%d handles replaced, want %d", replaced, len(handles)-maxLabels)
	}
	if got := lt.name(handles[len(handles)-1]); got != "L"+strconv.Itoa(len(handles)-1) {
		t.Fatalf("newest label renders %q", got)
	}
}

// TestLabelClockKeepsHotLabel: a label interned again between new ones
// survives a churn of one-off labels many times the table's size.
func TestLabelClockKeepsHotLabel(t *testing.T) {
	var lt labelTable
	lt.mu.Lock()
	defer lt.mu.Unlock()
	hot := lt.intern("hot")
	for i := range 5 * maxLabels {
		lt.intern("cold" + strconv.Itoa(i))
		if h := lt.intern("hot"); h != hot {
			t.Fatalf("hot label re-interned as a new handle after %d cold ones", i+1)
		}
	}
}

// TestLabelHeldAllocs: a record whose labels the table holds commits, and
// is looked up, without allocating — also once the table has replaced
// labels, which the engine's label-churn test drives end to end.
func TestLabelHeldAllocs(t *testing.T) {
	tr := New("labels", Options{Ring: 64})
	for i := range maxLabels + 100 {
		tr.Finish(Record{ID: tr.NextID(), Tier: "tiny", Tenant: "t" + strconv.Itoa(i), Outcome: OutcomeOK})
	}
	rec := Record{Tier: "tiny", Tenant: "held", ResidentID: "w1.v2", Outcome: OutcomeOK}
	tr.Finish(rec)
	if got := testing.AllocsPerRun(100, func() {
		rec.ID = tr.NextID()
		tr.Finish(rec)
	}); got != 0 {
		t.Fatalf("Finish with held labels: %.1f allocations, want 0", got)
	}
	if got := testing.AllocsPerRun(100, func() {
		if r, ok := tr.LookupRecord(rec.ID); !ok || r.Tenant != "held" {
			t.Fatalf("LookupRecord(%d) = %+v, %v", rec.ID, r, ok)
		}
	}); got != 0 {
		t.Fatalf("LookupRecord: %.1f allocations, want 0", got)
	}
}

// TestLookupRecordScansInPlace: a lookup finds every retained ID, misses
// overwritten and future ones, and allocates nothing on a full default ring.
func TestLookupRecordScansInPlace(t *testing.T) {
	tr := New("lookup", Options{})
	for range DefaultRing + 10 {
		tr.Finish(okRecord(tr, "small", 1))
	}
	for _, id := range []uint64{11, 2000, DefaultRing + 10} {
		if r, ok := tr.LookupRecord(id); !ok || r.ID != id {
			t.Fatalf("LookupRecord(%d) = %d, %v", id, r.ID, ok)
		}
	}
	for _, id := range []uint64{0, 10, DefaultRing + 11} {
		if _, ok := tr.LookupRecord(id); ok {
			t.Fatalf("LookupRecord(%d) found a record the ring does not hold", id)
		}
	}
	if got := testing.AllocsPerRun(20, func() { tr.LookupRecord(12) }); got != 0 {
		t.Fatalf("LookupRecord: %.1f allocations, want 0", got)
	}
}

// TestRingConcurrentLabelChurn runs writers whose every record carries a new
// tenant label (so the table replaces labels throughout) against readers of
// Recent, LookupRecord and Snapshots, with snapshots tripping as they go.
// Each record's DurNs equals its ID and its tenant names the ID, so a torn
// entry or a handle rendering another label shows as a mismatch. Run it
// under -race.
func TestRingConcurrentLabelChurn(t *testing.T) {
	tr := New("churn", Options{Ring: 256})
	check := func(r Record) error {
		if r.DurNs != int64(r.ID) {
			return fmt.Errorf("torn record: ID %d with DurNs %d", r.ID, r.DurNs)
		}
		if want := "t" + strconv.FormatUint(r.ID, 10); r.Tenant != want && r.Tenant != ReplacedLabel {
			return fmt.Errorf("record %d renders tenant %q", r.ID, r.Tenant)
		}
		return nil
	}
	const writers, perWriter = 4, 1500
	var (
		wg, readers sync.WaitGroup
		stop        = make(chan struct{})
		errs        = make(chan error, 8)
	)
	report := func(err error) {
		select {
		case errs <- err:
		default:
		}
	}
	read := func(f func()) {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					f()
				}
			}
		}()
	}
	read(func() {
		for _, r := range tr.Recent() {
			if err := check(r); err != nil {
				report(err)
			}
		}
	})
	read(func() {
		if id := uint64(tr.Committed()); id > 0 {
			if r, ok := tr.LookupRecord(id); ok {
				if err := check(r); err != nil {
					report(err)
				}
			}
		}
	})
	read(func() {
		for _, s := range tr.Snapshots() {
			for _, r := range s.Records {
				if err := check(r); err != nil {
					report(err)
				}
			}
		}
		tr.trip(ReasonConformance, nil, "churn") // collapses within the quiet window
	})
	for range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range perWriter {
				id := tr.NextID()
				tr.Finish(Record{ID: id, DurNs: int64(id), Tier: "small",
					Tenant: "t" + strconv.FormatUint(id, 10), Outcome: OutcomeOK})
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()
	close(errs)
	var msgs []string
	for err := range errs {
		msgs = append(msgs, err.Error())
	}
	if len(msgs) > 0 {
		t.Fatal(strings.Join(msgs, "\n"))
	}
	tr.labels.mu.Lock()
	n := len(tr.labels.index)
	tr.labels.mu.Unlock()
	if n > maxLabels {
		t.Fatalf("label table holds %d labels, cap %d", n, maxLabels)
	}
	for _, r := range tr.Recent() {
		if err := check(r); err != nil {
			t.Fatal(err)
		}
	}
}
