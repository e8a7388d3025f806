package core

import "repro/internal/obs"

// PredictTraffic returns the DRAM traffic this configuration implies for an
// M×K×N multiplication, phase by phase, folded over the block program
// the executor runs, with the accounting its traces record: every CB block packs its clipped A and B
// surfaces (mEff·kEff + kEff·nEff elements), the partial-C surface stays
// resident so compute moves nothing, and each completed (M,N) block run
// folds back into C with one read-modify-write (2·mEff·nEff elements).
//
// This is the model side of a conformance check: a traced run's measured
// pack traffic plus its panel-cache-avoided bytes must equal PackBytes
// exactly, because both derive from the same per-block formulas — any gap
// means the executor moved data the model does not know about.
func (c Config) PredictTraffic(m, k, n, elemBytes int) obs.Traffic {
	eb := int64(elemBytes)
	var t obs.Traffic
	for _, b := range c.Program(m, k, n).Blocks {
		t.PackBytes += (int64(b.MEff) + int64(b.NEff)) * int64(b.KEff) * eb
		if b.RunEnd {
			t.UnpackBytes += 2 * int64(b.MEff) * int64(b.NEff) * eb
		}
	}
	return t
}
