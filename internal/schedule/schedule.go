// Package schedule implements Algorithm 2 of the CAKE paper: the K-first
// (reduction-first) block schedule with boustrophedon ("snake") traversal.
//
// The MM computation space is an Mb×Nb×Kb grid of CB blocks. A schedule is a
// permutation of the grid. The traversal direction of each dimension flips
// every time the enclosing dimension steps, so that consecutive blocks are
// always adjacent in the computation space and therefore share an IO
// surface: partial C within a K run, the B surface across an M step, and the
// A surface across an N step (Section 2.2).
//
// The package also provides the no-snake schedule the paper argues against
// (restart every dimension at index 0) and a stateful IO-cost model used to
// quantify the reuse each schedule achieves.
package schedule

import "fmt"

// Coord identifies one CB block in the partitioned computation space.
type Coord struct {
	M, N, K int
}

// Dims is the block-grid size: the computation space holds Mb·Nb·Kb blocks.
type Dims struct {
	Mb, Nb, Kb int
}

// Blocks returns the total block count.
func (d Dims) Blocks() int { return d.Mb * d.Nb * d.Kb }

// Validate checks that every dimension is positive.
func (d Dims) Validate() error {
	if d.Mb < 1 || d.Nb < 1 || d.Kb < 1 {
		return fmt.Errorf("schedule: invalid grid %dx%dx%d", d.Mb, d.Nb, d.Kb)
	}
	return nil
}

// Order selects which input surface the schedule prefers to reuse when a
// reduction run completes (Section 2.2).
type Order int

const (
	// OuterN completes the M dimension before stepping N, reusing the B
	// surface at M steps. Optimal when N ≥ M (B is the larger surface).
	OuterN Order = iota
	// OuterM completes the N dimension before stepping M, reusing the A
	// surface at N steps. Optimal when M > N.
	OuterM
)

func (o Order) String() string {
	if o == OuterN {
		return "OuterN"
	}
	return "OuterM"
}

// OrderFor returns the IO-minimising order for a computation space with M
// rows and N columns: reuse the larger input surface first (paper §2.2).
func OrderFor(m, n int) Order {
	if n >= m {
		return OuterN
	}
	return OuterM
}

// KFirst generates Algorithm 2's block sequence for the given grid. The K
// dimension is innermost (maximising partial-result reuse); the middle and
// outer dimensions are (M, N) for OuterN or (N, M) for OuterM. Inner
// traversal directions flip after every completed run.
func KFirst(d Dims, o Order) []Coord {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	return AppendKFirst(make([]Coord, 0, d.Blocks()), d, o)
}

// AppendKFirst appends KFirst's sequence to dst and returns the extended
// slice, so a caller that runs many schedules can reuse one buffer.
func AppendKFirst(dst []Coord, d Dims, o Order) []Coord {
	Walk(d, o, func(c Coord) { dst = append(dst, c) })
	return dst
}

// Walk streams Algorithm 2's sequence to fn without materialising it,
// for grids too large to hold (the simulator walks 10⁵+ block grids).
func Walk(d Dims, o Order, fn func(Coord)) {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	outer, mid := d.Nb, d.Mb
	if o == OuterM {
		outer, mid = d.Mb, d.Nb
	}
	midDir, kDir := 1, 1
	for oi := 0; oi < outer; oi++ {
		for mj := 0; mj < mid; mj++ {
			mi := mj
			if midDir < 0 {
				mi = mid - 1 - mj
			}
			for kj := 0; kj < d.Kb; kj++ {
				ki := kj
				if kDir < 0 {
					ki = d.Kb - 1 - kj
				}
				if o == OuterN {
					fn(Coord{M: mi, N: oi, K: ki})
				} else {
					fn(Coord{M: oi, N: mi, K: ki})
				}
			}
			kDir = -kDir
		}
		midDir = -midDir
	}
}

// Naive generates the restart-at-zero schedule of the paper's
// counter-example: the same loop nest as KFirst but with every dimension
// always traversed in increasing order, losing the A/B surface reuse at run
// boundaries (the O(Mb·Nb + Nb) missed reuses of Section 2.2).
func Naive(d Dims, o Order) []Coord {
	if err := d.Validate(); err != nil {
		panic(err)
	}
	out := make([]Coord, 0, d.Blocks())
	outer, mid := d.Nb, d.Mb
	if o == OuterM {
		outer, mid = d.Mb, d.Nb
	}
	for oi := 0; oi < outer; oi++ {
		for mi := 0; mi < mid; mi++ {
			for ki := 0; ki < d.Kb; ki++ {
				if o == OuterN {
					out = append(out, Coord{M: mi, N: oi, K: ki})
				} else {
					out = append(out, Coord{M: oi, N: mi, K: ki})
				}
			}
		}
	}
	return out
}

// Shared reports which IO surfaces two consecutively scheduled blocks have
// in common: the A surface is the (M, K) face, B the (K, N) face, and C the
// (M, N) face of the block.
func Shared(prev, cur Coord) (a, b, c bool) {
	a = prev.M == cur.M && prev.K == cur.K
	b = prev.K == cur.K && prev.N == cur.N
	c = prev.M == cur.M && prev.N == cur.N
	return
}

// IsPermutation reports whether seq visits every block of d exactly once.
func IsPermutation(d Dims, seq []Coord) bool {
	if len(seq) != d.Blocks() {
		return false
	}
	seen := make(map[Coord]bool, len(seq))
	for _, c := range seq {
		if c.M < 0 || c.M >= d.Mb || c.N < 0 || c.N >= d.Nb || c.K < 0 || c.K >= d.Kb {
			return false
		}
		if seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}
