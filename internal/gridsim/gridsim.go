// Package gridsim is a functional simulator of the paper's abstract
// machine (Sections 2–3, Figure 3): a processing grid of m×k cores, each
// holding one stationary A tile, computing CB blocks as sums of outer
// products. B tiles are broadcast down core columns, partial results
// accumulate across the K dimension of the grid, and the resident C surface
// returns to external memory only when its reduction completes.
//
// The simulator executes real multiplications (tile side 1, i.e. scalar
// tiles) so the CB block design and the K-first schedule are validated
// functionally — the role the authors' SystemC simulator plays in Section
// 6.2 — while metering exactly the quantities of the Section 3 analysis:
// external IO (Equation 2), local memory (Equation 1) and internal traffic
// (Equation 3), all in tiles and unit times.
package gridsim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Config shapes the grid and its CB blocks: the grid has p·k × k cores
// (one per A-surface tile); blocks are p·k × k × α·p·k tiles.
type Config struct {
	P     int     // core-count scale factor (grid rows = p·k)
	K     int     // reduction width of the grid (grid cols = k)
	Alpha float64 // CB aspect factor ≥ 1
}

// Validate reports the first problem with the configuration.
func (c Config) Validate() error {
	switch {
	case c.P < 1 || c.K < 1:
		return fmt.Errorf("gridsim: invalid grid p=%d k=%d", c.P, c.K)
	case c.Alpha < 1:
		return fmt.Errorf("gridsim: alpha %v < 1", c.Alpha)
	default:
		return nil
	}
}

// Cores returns the number of cores in the processing grid (= A tiles per
// block, Section 3: "the number of tiles in the A surface ... is equal to
// the number of cores").
func (c Config) Cores() int { return c.P * c.K * c.K }

// CB returns the CB block configuration the grid runs: one tile per
// register tile, p cores of k-row strips, so its blocks are
// p·k × k × α·p·k tiles (Config.BlockDims of the result).
func (c Config) CB() core.Config {
	return core.Config{Cores: c.P, MC: c.K, KC: c.K, Alpha: c.Alpha, MR: 1, NR: 1, Order: core.OrderAuto}
}

// Metrics meters a run in the paper's tile units.
type Metrics struct {
	UnitTimes     int64 // total computation time (T = n per block + fills)
	Blocks        int64
	ExtInTiles    int64 // A and B tiles fetched from external memory
	ExtOutTiles   int64 // completed C tiles written back
	InternalTiles int64 // tiles moved between local memory and the grid
	PeakLocalMem  int64 // largest per-block surface footprint (tiles)
}

// ExternalBW returns the average external bandwidth in tiles per unit time
// (Equation 2 predicts (α+1)/α·k for input traffic on exact tilings).
func (m Metrics) ExternalBW() float64 {
	if m.UnitTimes == 0 {
		return 0
	}
	return float64(m.ExtInTiles) / float64(m.UnitTimes)
}

// InternalBW returns the average internal bandwidth in tiles per unit time
// (Equation 3 predicts Rk + 2pk).
func (m Metrics) InternalBW() float64 {
	if m.UnitTimes == 0 {
		return 0
	}
	return float64(m.InternalTiles) / float64(m.UnitTimes)
}

// Multiply computes C = A×B on the simulated grid (tile side 1: each core
// holds one scalar of A). Dimensions may be arbitrary; edge blocks run with
// idle cores. Returns the result and the metered run.
func Multiply(cfg Config, a, b *matrix.Matrix[float64]) (*matrix.Matrix[float64], Metrics, error) {
	if err := cfg.Validate(); err != nil {
		return nil, Metrics{}, err
	}
	if a.Cols != b.Rows {
		return nil, Metrics{}, fmt.Errorf("gridsim: inner dims %d vs %d", a.Cols, b.Rows)
	}
	mDim, kDim, nDim := a.Rows, a.Cols, b.Cols
	cb := cfg.CB()
	bm, bk, bn := cb.BlockDims()

	c := matrix.New[float64](mDim, nDim)
	// The grid's stationary A register file and the local (resident) C
	// block surface.
	aTiles := matrix.New[float64](bm, bk)
	cLocal := matrix.New[float64](bm, bn)

	var met Metrics
	for _, blk := range cb.Program(mDim, kDim, nDim).Blocks {
		m0, mEff := blk.M0, blk.MEff
		k0, kEff := blk.K0, blk.KEff
		n0, nEff := blk.N0, blk.NEff

		// Load phase: each core receives its stationary A tile (reused
		// across the N step when the schedule preserves the surface).
		if !blk.SharesA {
			aTiles.Zero()
			aTiles.View(0, 0, mEff, kEff).CopyFrom(a.View(m0, k0, mEff, kEff))
			met.ExtInTiles += int64(mEff) * int64(kEff)
		}
		if !blk.SharesB {
			met.ExtInTiles += int64(kEff) * int64(nEff)
		}
		if blk.RunStart {
			cLocal.Zero()
		}

		// Compute phase: one unit time per N position. Core column j
		// receives the broadcast B tile (k0+j, n0+t); core (i, j) multiplies
		// its stationary tile; the column's products accumulate across K
		// into the local C tile (i, t) — the grid's outer-product step.
		for t := 0; t < nEff; t++ {
			for i2 := 0; i2 < mEff; i2++ {
				var sum float64
				arow := aTiles.Row(i2)
				for j := 0; j < kEff; j++ {
					sum += arow[j] * b.At(k0+j, n0+t)
				}
				cLocal.Add(i2, t, sum)
			}
		}
		met.UnitTimes += int64(nEff)
		// Internal traffic per block: A and B surfaces read once onto the
		// grid, the partial C surface read and written once (Section 3.3).
		met.InternalTiles += int64(mEff)*int64(kEff) + int64(kEff)*int64(nEff) + 2*int64(mEff)*int64(nEff)
		if fp := int64(mEff)*int64(kEff) + int64(kEff)*int64(nEff) + int64(mEff)*int64(nEff); fp > met.PeakLocalMem {
			met.PeakLocalMem = fp
		}
		met.Blocks++

		// Retire phase: completed results leave for external memory once
		// per C surface (partials never travel, Section 2.2).
		if blk.RunEnd {
			cv := c.View(m0, n0, mEff, nEff)
			for i2 := 0; i2 < mEff; i2++ {
				crow := cv.Row(i2)
				lrow := cLocal.Row(i2)
				copy(crow, lrow[:nEff])
			}
			met.ExtOutTiles += int64(mEff) * int64(nEff)
		}
	}
	return c, met, nil
}
