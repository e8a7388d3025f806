// Package core implements the CAKE GEMM driver — the paper's primary
// contribution. A matrix multiplication is partitioned into constant-
// bandwidth blocks of shape p·mc × kc × α·p·mc (Section 4.2), the blocks
// are ordered by the K-first schedule of Algorithm 2, and each block is
// executed by p workers ("cores"): every core owns one mc×kc sub-block of
// the A surface, streams the shared B panel, and accumulates its strip of
// the block's partial-C surface, which stays resident in a local buffer
// until its K reduction completes (Figure 6). The executor packs along those
// per-core strips, but its granted workers claim the block's compute in
// smaller row-panel units, so cores of unequal speed stay balanced (see
// computeStage).
package core

import (
	"fmt"
	"math"

	"repro/internal/cbtheory"
	"repro/internal/platform"
	"repro/internal/schedule"
)

// ComputeDim selects the dimension along which the cores of a CB block
// advance (Section 3). The paper presents the N-dimension and notes M and K
// as variants; all three are implemented here.
type ComputeDim int

const (
	// DimN: each core holds one mc×kc A sub-block stationary and sweeps the
	// block's N extent — the paper's primary formulation.
	DimN ComputeDim = iota
	// DimM: the mirror image — each core holds one kc×mc B sub-block and
	// sweeps the block's M extent.
	DimM
	// DimK: cores partition the block's reduction depth, each producing a
	// private partial-C surface that is then summed in local memory.
	DimK
)

func (d ComputeDim) String() string {
	switch d {
	case DimN:
		return "N"
	case DimM:
		return "M"
	default:
		return "K"
	}
}

// OrderAuto lets the driver pick the schedule order from the matrix shape
// (reuse the larger input surface first, Section 2.2).
const OrderAuto schedule.Order = -1

// Config fully determines a CAKE execution.
type Config struct {
	Cores int     // p: worker count, one per simulated core
	MC    int     // per-core A block rows (square block: kc defaults to mc)
	KC    int     // reduction depth per CB block
	Alpha float64 // CB aspect factor α ≥ 1
	MR    int     // register tile rows
	NR    int     // register tile cols
	Dim   ComputeDim
	Order schedule.Order // OrderAuto, schedule.OuterN or schedule.OuterM
}

// Validate reports the first structural problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.Cores < 1:
		return fmt.Errorf("core: config needs >=1 cores, got %d", c.Cores)
	case c.MR < 1 || c.NR < 1:
		return fmt.Errorf("core: invalid register tile %dx%d", c.MR, c.NR)
	case c.MC < c.MR:
		return fmt.Errorf("core: mc=%d smaller than mr=%d", c.MC, c.MR)
	case c.MC%c.MR != 0:
		return fmt.Errorf("core: mc=%d not a multiple of mr=%d", c.MC, c.MR)
	case c.Dim == DimM && c.MC%c.NR != 0:
		return fmt.Errorf("core: mc=%d not a multiple of nr=%d (required for M-dimension compute)", c.MC, c.NR)
	case c.KC < 1:
		return fmt.Errorf("core: kc=%d", c.KC)
	case c.Alpha < 1:
		return fmt.Errorf("core: alpha=%v < 1", c.Alpha)
	case c.Order != OrderAuto && c.Order != schedule.OuterN && c.Order != schedule.OuterM:
		return fmt.Errorf("core: invalid order %d", c.Order)
	case c.Dim < DimN || c.Dim > DimK:
		return fmt.Errorf("core: invalid compute dimension %d", c.Dim)
	default:
		return nil
	}
}

// Shape returns the CB block geometry this configuration induces.
func (c Config) Shape() cbtheory.Shape {
	return cbtheory.Shape{P: c.Cores, MC: c.MC, KC: c.KC, Alpha: c.Alpha}
}

// BlockDims returns the block extents (blockM, blockK, blockN) in elements.
// For the N and M compute dimensions these follow Section 4.2's
// p·mc × kc × α·p·mc shape (mirrored for DimM); for DimK the reduction
// depth carries the p factor instead.
func (c Config) BlockDims() (bm, bk, bn int) {
	s := c.Shape()
	switch c.Dim {
	case DimN:
		return s.MDim(), s.KDim(), s.NDim()
	case DimM:
		return s.NDim(), s.KDim(), s.MDim()
	default: // DimK
		return c.MC, c.Cores * c.KC, int(c.Alpha * float64(c.MC))
	}
}

// stripRows is the height of each DimN core strip of an mEff-row block:
// the rows spread evenly over the config's cores, rounded up to whole mr
// panels and capped at mc. A full block gets mc-row strips; a partial block
// row gets balanced ones instead of leaving most cores idle (160 rows
// against mc = 176 on two cores run as two 80-row strips, not one of 160).
// Strips stay mr-aligned, so the packed-A layout is the same either way.
func (c Config) stripRows(mEff int) int {
	return min(c.MC, roundUpMultiple(ceilDiv(mEff, c.Cores), c.MR))
}

// GridFor returns the CB block grid covering an M×K×N computation space.
func (c Config) GridFor(m, k, n int) schedule.Dims {
	bm, bk, bn := c.BlockDims()
	return gridFor(m, k, n, bm, bk, bn)
}

// gridFor is GridFor for block extents already in hand (an executor keeps
// its config's).
func gridFor(m, k, n, bm, bk, bn int) schedule.Dims {
	return schedule.Dims{Mb: ceilDiv(m, bm), Nb: ceilDiv(n, bn), Kb: ceilDiv(k, bk)}
}

func (c Config) String() string {
	return fmt.Sprintf("cake{p=%d mc=%d kc=%d α=%.3g tile=%dx%d dim=%s}",
		c.Cores, c.MC, c.KC, c.Alpha, c.MR, c.NR, c.Dim)
}

// MaxPlanAlpha caps the aspect factor the planner will select on bandwidth-
// starved platforms; beyond this the local-memory cost of a taller block
// outweighs further external-bandwidth savings.
const MaxPlanAlpha = 16

// Plan derives a Config for multiplying M×K by K×N on the given platform.
//
// Following Section 4.4, the square mc×kc per-core A sub-block is sized to
// the core's private cache (the L2 on the desktops, the L1 on the A53) —
// the same home GOTO uses — so kc is a per-core constant independent of how
// many cores run. The whole CB block (p·mc × kc × α·p·mc) must then pass
// the Section 4.3 LRU rule C + 2(A+B) ≤ S against the shared LLC, which
// caps mc when p is large enough that the α·p²·mc² partial-C surface would
// overflow it. α comes from the platform's DRAM bandwidth via R (Section
// 3.2); α and mc are mutually dependent, so Plan runs the constraints to a
// fixed point. Block dimensions are clamped to the problem so small
// multiplications do not allocate giant buffers.
func Plan(pl *platform.Platform, m, k, n, elemBytes int) (Config, error) {
	if err := pl.Validate(); err != nil {
		return Config{}, err
	}
	if m < 1 || k < 1 || n < 1 {
		return Config{}, fmt.Errorf("core: invalid GEMM dims %dx%dx%d", m, k, n)
	}
	if elemBytes < 1 {
		return Config{}, fmt.Errorf("core: invalid element size %d", elemBytes)
	}
	const mr, nr = 8, 8
	p := pl.Cores
	sElems := float64(pl.LLCBytes) / float64(elemBytes)
	rates := cbtheory.Rates{ClockHz: pl.ClockHz, FlopsPerCycle: pl.FlopsPerCycle, ElemBytes: elemBytes}

	// Per-core constraint: the A sub-block plus streaming headroom fits the
	// private cache (2·mc² ≤ L2 elements), mirroring GOTO's A-block home.
	private := pl.L2Bytes
	if private == 0 {
		private = pl.L1Bytes
	}
	mcPrivate := int(math.Sqrt(float64(private) / float64(elemBytes) / 2))
	mcPrivate -= mcPrivate % mr
	if mcPrivate < mr {
		mcPrivate = mr
	}

	alpha := 1.0
	mc := min(mcPrivate, cbtheory.MaxMCForCache(sElems, p, alpha, mr))
	for i := 0; i < 8; i++ {
		// α for the current kc (= mc); ErrBandwidthBound still yields the
		// capped α — CAKE proceeds bandwidth-bound, as on the ARM A53.
		a, _ := cbtheory.AlphaForBandwidth(rates, pl.DRAMBW, mr, nr, mc, MaxPlanAlpha)
		nmc := min(mcPrivate, cbtheory.MaxMCForCache(sElems, p, a, mr))
		if a == alpha && nmc == mc {
			break
		}
		alpha, mc = a, nmc
	}

	// The reduction depth keeps the private-cache-derived value (it sets
	// the block's arithmetic intensity), clamped to the problem.
	kc := mc
	if kc > k {
		kc = k
	}
	// Even out the block rows: with Mb = ceil(M / (p·mc)) rows, shrink mc
	// so M distributes evenly over Mb·p core strips. Otherwise a final
	// partial block row idles most cores (e.g. M=2304 against a 1760-row
	// block leaves 4 of 10 cores active for a quarter of the work). The
	// A sub-block becomes mc'×kc ≤ mc², still private-cache resident.
	mb := ceilDiv(m, p*mc)
	if even := roundUpMultiple(ceilDiv(m, mb*p), mr); even < mc {
		mc = even
	}
	cfg := Config{
		Cores: p, MC: mc, KC: kc, Alpha: alpha,
		MR: mr, NR: nr, Dim: DimN, Order: OrderAuto,
	}
	if err := cfg.Validate(); err != nil {
		return Config{}, fmt.Errorf("core: planner produced invalid config: %w", err)
	}
	return cfg, nil
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

func roundUpMultiple(v, m int) int {
	if v < m {
		return m
	}
	return ceilDiv(v, m) * m
}
