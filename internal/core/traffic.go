package core

import "repro/internal/obs"

// PredictTraffic returns the DRAM traffic this configuration implies for an
// M×K×N multiplication, phase by phase, using the same accounting the
// traced executors record: every CB block packs its clipped A and B
// surfaces (mEff·kEff + kEff·nEff elements), the partial-C surface stays
// resident so compute moves nothing, and each completed (M,N) block run
// folds back into C with one read-modify-write (2·mEff·nEff elements).
//
// This is the model side of a conformance check: a traced run's measured
// pack traffic plus its panel-cache-avoided bytes must equal PackBytes
// exactly, because both derive from the same per-block formulas — any gap
// means the executor moved data the model does not know about.
func (c Config) PredictTraffic(m, k, n, elemBytes int) obs.Traffic {
	bm, bk, bn := c.BlockDims()
	grid := c.GridFor(m, k, n)
	eb := int64(elemBytes)
	var t obs.Traffic
	for mb := 0; mb < grid.Mb; mb++ {
		_, mEff := span(mb, bm, m)
		for nb := 0; nb < grid.Nb; nb++ {
			_, nEff := span(nb, bn, n)
			t.UnpackBytes += 2 * int64(mEff) * int64(nEff) * eb
			for kb := 0; kb < grid.Kb; kb++ {
				_, kEff := span(kb, bk, k)
				t.PackBytes += (int64(mEff) + int64(nEff)) * int64(kEff) * eb
			}
		}
	}
	return t
}
