package sim

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/gotoalg"
)

// CakeOps compiles an M×K×N CAKE GEMM under cfg into the simulator's block
// program: cfg's own block program (the blocks the executor runs, in
// Algorithm 2's K-first order) with per-transition surface reuse (inputs
// reused across adjacent blocks, partial C resident until its reduction
// completes, completed C written back exactly once).
func CakeOps(cfg core.Config, elemBytes, m, k, n int) ([]BlockOp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if elemBytes < 1 || m < 1 || k < 1 || n < 1 {
		return nil, fmt.Errorf("sim: invalid dims %dx%dx%d or element size %d", m, k, n, elemBytes)
	}
	e := int64(elemBytes)
	blocks := cfg.Program(m, k, n).Blocks
	ops := make([]BlockOp, 0, len(blocks))
	for _, b := range blocks {
		mk, kn, mn := int64(b.MEff)*int64(b.KEff), int64(b.KEff)*int64(b.NEff), int64(b.MEff)*int64(b.NEff)
		op := BlockOp{
			MACs:   mk * int64(b.NEff),
			Active: b.Active,
			// Section 4.3 residency demand: this block's C surface plus two
			// generations of A and B inputs (double buffering).
			Footprint: (mn + 2*(mk+kn)) * e,
			Internal:  kernelLLCBytes(b.MEff, b.KEff, b.NEff, cfg.MR, e),
		}
		if !b.SharesA {
			op.FetchA = mk * e
		}
		if !b.SharesB {
			op.FetchB = kn * e
		}
		if b.RunEnd {
			op.WriteC = mn * e
		}
		ops = append(ops, op)
	}
	return ops, nil
}

// GotoOps compiles an M×K×N GOTO GEMM into a block program following the
// five-loop schedule of Figure 5. Each op is one round of p cores working
// on consecutive ic blocks. The defining external-IO behaviour of Section
// 4.1 falls out of the compilation: the B panel is fetched once per
// (jc, pc), A blocks once per (jc, pc, ic), and the partial C slab streams
// to DRAM every round — and back in again on every pc iteration after the
// first.
func GotoOps(cfg gotoalg.Config, elemBytes, m, k, n int) ([]BlockOp, error) {
	if err := cfg.Validate(); err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	if elemBytes < 1 || m < 1 || k < 1 || n < 1 {
		return nil, fmt.Errorf("sim: invalid dims %dx%dx%d or element size %d", m, k, n, elemBytes)
	}
	e := int64(elemBytes)
	var ops []BlockOp
	for jc := 0; jc < n; jc += cfg.NC {
		ncEff := min(cfg.NC, n-jc)
		for pc := 0; pc < k; pc += cfg.KC {
			kcEff := min(cfg.KC, k-pc)
			first := true
			for ic := 0; ic < m; ic += cfg.Cores * cfg.MC {
				rows := min(cfg.Cores*cfg.MC, m-ic)
				active := ceilDiv(rows, cfg.MC)
				op := BlockOp{
					MACs:   int64(rows) * int64(kcEff) * int64(ncEff),
					Active: active,
					FetchA: int64(rows) * int64(kcEff) * e,
					// The partial C slab is demand traffic: it streams out
					// on every round, and back in for accumulation on every
					// pc iteration after the first, interleaved with the
					// kernel rather than prefetched.
					DemandWrite: int64(rows) * int64(ncEff) * e,
				}
				if first {
					op.FetchB = int64(kcEff) * int64(ncEff) * e
					first = false
				}
				if pc > 0 {
					op.DemandRead = int64(rows) * int64(ncEff) * e
				}
				op.Internal = kernelLLCBytes(rows, kcEff, ncEff, cfg.MR, e)
				ops = append(ops, op)
			}
		}
	}
	return ops, nil
}

// kernelLLCBytes returns the LLC↔core traffic the tiled kernel induces for
// an mEff×kEff×nEff slab: the B panel streams from the LLC once per mr-row
// panel of A (the macro-kernel sweep), the C slab is read and written once,
// and each A element enters a core's private cache once. This kernel-level
// accounting is what makes internal bandwidth the binding constraint at
// high core counts (Equation 6, Figures 10c/11c).
func kernelLLCBytes(mEff, kEff, nEff, mr int, elemBytes int64) int64 {
	bTraffic := int64(ceilDiv(mEff, mr)) * int64(kEff) * int64(nEff)
	cTraffic := 2 * int64(mEff) * int64(nEff)
	aTraffic := int64(mEff) * int64(kEff)
	return (bTraffic + cTraffic + aTraffic) * elemBytes
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }
