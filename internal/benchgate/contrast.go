package benchgate

import (
	"fmt"
	"math"

	"repro/internal/experiments"
)

// Contrast verdicts beyond the capture-time pass/miss an epoch records.
const (
	// ContrastMissing: the epoch's grid declares the contrast but the epoch
	// does not carry it.
	ContrastMissing = "missing"
	// ContrastMalformed: the contrast carries no pairs, or a pair ratio that
	// is not a positive finite number.
	ContrastMalformed = "malformed"
)

// ContrastVerdict is one declared contrast judged on one epoch.
type ContrastVerdict struct {
	Contrast string  `json:"contrast"`
	Epoch    int     `json:"epoch"`
	Ratio    float64 `json:"ratio"` // median of the recorded pairs
	Pairs    int     `json:"pairs"`
	Floor    float64 `json:"floor"` // the declared floor, not the epoch's copy
	Strict   bool    `json:"strict,omitempty"`
	Verdict  string  `json:"verdict"` // pass | miss | missing | malformed
}

// JudgeContrasts judges every contrast the epoch's grid declares. The floor
// comes from the declaration and the ratio is recomputed from the recorded
// pairs, so an epoch cannot pass by carrying a lowered floor, a stale ratio
// or its own verdict. Contrasts the grid does not declare are ignored, and
// epochs written before contrasts existed yield no verdicts.
func JudgeContrasts(e *experiments.CorpusEpoch) ([]ContrastVerdict, error) {
	if !e.HasContrasts() {
		return nil, nil
	}
	grid := e.Grid
	if grid == "" {
		grid = "full"
	}
	declared, err := experiments.DeclaredContrasts(grid)
	if err != nil {
		return nil, fmt.Errorf("benchgate: epoch %04d: %w", e.Seq, err)
	}
	out := make([]ContrastVerdict, 0, len(declared))
	for _, d := range declared {
		v := ContrastVerdict{Contrast: d.Name, Epoch: e.Seq, Floor: d.Floor, Strict: d.Strict, Verdict: ContrastMissing}
		for _, rec := range e.Contrasts {
			if rec.Name == d.Name {
				v.Pairs = len(rec.Pairs)
				v.Ratio, v.Verdict = judgePairs(d, rec.Pairs)
				break
			}
		}
		out = append(out, v)
	}
	return out, nil
}

// judgePairs recomputes the median pair ratio and judges it.
func judgePairs(d experiments.Contrast, pairs []float64) (float64, string) {
	if len(pairs) == 0 {
		return 0, ContrastMalformed
	}
	for _, p := range pairs {
		if !(p > 0) || math.IsInf(p, 0) {
			return 0, ContrastMalformed
		}
	}
	ratio := median(pairs)
	if d.Passes(ratio) {
		return ratio, experiments.ContrastPass
	}
	return ratio, experiments.ContrastMiss
}

// contrastFindings converts contrast verdicts to gate findings. A miss
// describes the capture host's measurement; missing and malformed
// contrasts describe the code that wrote the epoch.
func contrastFindings(vs []ContrastVerdict) []Finding {
	out := make([]Finding, 0, len(vs))
	for _, v := range vs {
		cmp := "≥"
		if v.Strict {
			cmp = ">"
		}
		detail := fmt.Sprintf("%s: median of %d pairs %.3f, floor %s %.3f (epoch %04d)", v.Verdict, v.Pairs, v.Ratio, cmp, v.Floor, v.Epoch)
		if v.Verdict == ContrastMissing {
			detail = fmt.Sprintf("missing: epoch %04d does not carry this declared contrast", v.Epoch)
		}
		out = append(out, Finding{
			File: "corpus-contrast", Key: v.Contrast, Metric: "ratio",
			Base: v.Floor, Candidate: v.Ratio, Limit: v.Floor,
			Regression: v.Verdict != experiments.ContrastPass,
			Detail:     detail,
			hostState:  v.Verdict == experiments.ContrastMiss,
		})
	}
	return out
}
