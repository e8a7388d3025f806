package schedule

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDimsValidate(t *testing.T) {
	if (Dims{2, 3, 4}).Validate() != nil {
		t.Fatal("valid dims rejected")
	}
	for _, d := range []Dims{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {-1, 1, 1}} {
		if d.Validate() == nil {
			t.Fatalf("invalid dims accepted: %+v", d)
		}
	}
	if (Dims{2, 3, 4}).Blocks() != 24 {
		t.Fatal("Blocks wrong")
	}
}

func TestOrderFor(t *testing.T) {
	if OrderFor(100, 200) != OuterN {
		t.Fatal("N>M should pick OuterN")
	}
	if OrderFor(100, 100) != OuterN {
		t.Fatal("N==M should pick OuterN (paper assumes N>=M)")
	}
	if OrderFor(200, 100) != OuterM {
		t.Fatal("M>N should pick OuterM")
	}
	if OuterN.String() != "OuterN" || OuterM.String() != "OuterM" {
		t.Fatal("Order.String")
	}
}

func TestKFirstPaperFigure3d(t *testing.T) {
	// Figure 3d: a 3-slice (Mb=3, Kb=3, one N index) executes blocks 1..9 in
	// a K-first snake: K runs forward, then the M step keeps K, then K runs
	// backward.
	seq := KFirst(Dims{Mb: 3, Nb: 1, Kb: 3}, OuterN)
	want := []Coord{
		{0, 0, 0}, {0, 0, 1}, {0, 0, 2},
		{1, 0, 2}, {1, 0, 1}, {1, 0, 0},
		{2, 0, 0}, {2, 0, 1}, {2, 0, 2},
	}
	if len(seq) != len(want) {
		t.Fatalf("len=%d", len(seq))
	}
	for i := range want {
		if seq[i] != want[i] {
			t.Fatalf("step %d: got %v want %v", i, seq[i], want[i])
		}
	}
}

func TestKFirstIsPermutation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dims{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		o := Order(rng.Intn(2))
		return IsPermutation(d, KFirst(d, o))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestKFirstAdjacencyInvariant(t *testing.T) {
	// The paper's central scheduling property: every pair of consecutive
	// blocks shares at least one IO surface.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		d := Dims{1 + rng.Intn(6), 1 + rng.Intn(6), 1 + rng.Intn(6)}
		o := Order(rng.Intn(2))
		seq := KFirst(d, o)
		for i := 1; i < len(seq); i++ {
			a, b, c := Shared(seq[i-1], seq[i])
			if !a && !b && !c {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestNaiveLosesAdjacencyAtBoundaries(t *testing.T) {
	// With Kb > 1 and Mb > 1 the restart-at-zero schedule has transitions
	// sharing no surface (that's the point of the snake).
	seq := Naive(Dims{Mb: 2, Nb: 2, Kb: 3}, OuterN)
	broken := 0
	for i := 1; i < len(seq); i++ {
		a, b, c := Shared(seq[i-1], seq[i])
		if !a && !b && !c {
			broken++
		}
	}
	if broken == 0 {
		t.Fatal("naive schedule unexpectedly kept adjacency everywhere")
	}
}

// TestAppendKFirstExtendsBuffer: AppendKFirst keeps what dst holds and
// appends KFirst's sequence after it, so a reused buffer sliced to zero
// length yields exactly KFirst.
func TestAppendKFirstExtendsBuffer(t *testing.T) {
	d := Dims{3, 4, 5}
	head := Coord{M: 9, N: 9, K: 9}
	for _, o := range []Order{OuterN, OuterM} {
		got := AppendKFirst([]Coord{head}, d, o)
		gen := KFirst(d, o)
		if len(got) != 1+len(gen) || got[0] != head {
			t.Fatalf("order %v: %d coords (head %v), want %v then %d", o, len(got), got[0], head, len(gen))
		}
		for i := range gen {
			if got[1+i] != gen[i] {
				t.Fatalf("order %v step %d: %v vs %v", o, i, got[1+i], gen[i])
			}
		}
		if again := AppendKFirst(got[:0], d, o); len(again) != len(gen) || again[0] != gen[0] {
			t.Fatalf("order %v: reused buffer gave %d coords", o, len(again))
		}
	}
}

func TestKFirstKRunsAreContiguous(t *testing.T) {
	// Each (M,N) C surface must be completed in one contiguous run so
	// partial results never round-trip to DRAM.
	d := Dims{4, 3, 5}
	for _, o := range []Order{OuterN, OuterM} {
		seq := KFirst(d, o)
		done := map[[2]int]bool{}
		var curKey [2]int
		started := false
		for _, c := range seq {
			key := [2]int{c.M, c.N}
			if !started || key != curKey {
				if done[key] {
					t.Fatalf("order %v: C surface %v revisited after completion", o, key)
				}
				if started {
					done[curKey] = true
				}
				curKey = key
				started = true
			}
		}
	}
}

func TestInvalidDimsPanic(t *testing.T) {
	for name, fn := range map[string]func(){
		"KFirst":       func() { KFirst(Dims{0, 1, 1}, OuterN) },
		"Naive":        func() { Naive(Dims{1, 0, 1}, OuterN) },
		"AppendKFirst": func() { AppendKFirst(nil, Dims{1, 1, 0}, OuterN) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestShared(t *testing.T) {
	a, b, c := Shared(Coord{1, 2, 3}, Coord{1, 5, 3})
	if !a || b || c {
		t.Fatal("same (M,K) should share A only")
	}
	a, b, c = Shared(Coord{1, 2, 3}, Coord{4, 2, 3})
	if a || !b || c {
		t.Fatal("same (K,N) should share B only")
	}
	a, b, c = Shared(Coord{1, 2, 3}, Coord{1, 2, 4})
	if a || b || !c {
		t.Fatal("same (M,N) should share C only")
	}
}

func TestIsPermutation(t *testing.T) {
	d := Dims{2, 2, 2}
	seq := KFirst(d, OuterN)
	if !IsPermutation(d, seq) {
		t.Fatal("KFirst should be a permutation")
	}
	if IsPermutation(d, seq[:7]) {
		t.Fatal("short sequence accepted")
	}
	dup := append([]Coord{}, seq...)
	dup[3] = dup[2]
	if IsPermutation(d, dup) {
		t.Fatal("duplicate accepted")
	}
	bad := append([]Coord{}, seq...)
	bad[0] = Coord{5, 0, 0}
	if IsPermutation(d, bad) {
		t.Fatal("out-of-range accepted")
	}
}
