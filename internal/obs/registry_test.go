package obs

import (
	"slices"
	"strconv"
	"sync"
	"testing"
)

func TestRegistryReplaceKeepsOrderAndCopies(t *testing.T) {
	var r Registry[int]
	r.Set("a", 1)
	r.Set("b", 2)
	r.Set("a", 3) // replaces in place, keeps position
	names, vals := r.Snapshot()
	if !slices.Equal(names, []string{"a", "b"}) || !slices.Equal(vals, []int{3, 2}) {
		t.Fatalf("snapshot = %v %v, want [a b] [3 2]", names, vals)
	}
	names[0], vals[0] = "z", 99 // a snapshot is a copy
	if v, ok := r.Get("a"); !ok || v != 3 {
		t.Fatalf("Get(a) = %d, %v after editing a snapshot", v, ok)
	}
	if _, ok := r.Get("z"); ok {
		t.Fatal("Get found a name only a snapshot copy holds")
	}
}

// TestRegistryConcurrent registers, replaces, looks up and snapshots from
// several goroutines at once (run it under -race).
func TestRegistryConcurrent(t *testing.T) {
	var r Registry[int]
	var wg sync.WaitGroup
	for g := range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range 400 {
				name := strconv.Itoa(i % 16)
				r.Set(name, g)
				r.Get(name)
				r.Snapshot()
			}
		}()
	}
	wg.Wait()
	names, vals := r.Snapshot()
	if len(names) != 16 || len(vals) != 16 {
		t.Fatalf("%d names, %d values, want 16 each", len(names), len(vals))
	}
	slices.Sort(names)
	if got := slices.Compact(names); len(got) != 16 {
		t.Fatalf("duplicate names: %v", names)
	}
}
