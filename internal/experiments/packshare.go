package experiments

import (
	"cmp"
	"fmt"
	"slices"

	"repro/internal/core"
	"repro/internal/matrix"
)

// PackShareRow is one shape's packing-overhead measurement.
type PackShareRow struct {
	Name      string
	M, K, N   int
	PackShare float64 // fraction of time in packing / block management
	GFLOPS    float64
}

// PackingOverhead measures, on the real machine, the fraction of CAKE's
// execution spent packing for a set of matrix shapes — the Section 5.2.1
// observation that packing is negligible when M, N and K are all large but
// "may constitute a significant fraction of total computation time" for
// skewed shapes (one dimension much smaller than the other two).
func PackingOverhead(cores int, shapes []PackShareRow) ([]PackShareRow, error) {
	cfg := core.Config{
		Cores: cores, MC: 64, KC: 64, Alpha: 1, MR: 8, NR: 8, Order: core.OrderAuto,
	}
	// The synchronous executor: this experiment reproduces the paper's
	// baseline packing overhead, which panel reuse would understate.
	e, err := core.NewExecutor[float32](cfg, nil, core.WithPipeline(false))
	if err != nil {
		return nil, err
	}
	defer e.Close()

	out := make([]PackShareRow, 0, len(shapes))
	for _, row := range shapes {
		a := matrix.New[float32](row.M, row.K)
		b := matrix.New[float32](row.K, row.N)
		a.Fill(1)
		b.Fill(1)
		// The run with the median pack share of 7, each into a fresh C as a
		// one-off call writes: one run of a ~1 ms thin GEMM is at a
		// preemption's mercy.
		runs := make([]core.Stats, 7)
		for i := range runs {
			var err error
			if runs[i], err = e.Gemm(matrix.New[float32](row.M, row.N), a, b); err != nil {
				return nil, fmt.Errorf("experiments: %s: %w", row.Name, err)
			}
		}
		slices.SortFunc(runs, func(x, y core.Stats) int { return cmp.Compare(x.PackShare(), y.PackShare()) })
		st := runs[len(runs)/2]
		row.PackShare = st.PackShare()
		total := st.PackNanos + st.ComputeNanos
		if total > 0 {
			row.GFLOPS = matrix.GemmFlops(row.M, row.N, row.K) / float64(total)
		}
		out = append(out, row)
	}
	return out, nil
}

// DefaultPackShapes returns the square-vs-skewed comparison set.
func DefaultPackShapes() []PackShareRow {
	return []PackShareRow{
		{Name: "square", M: 512, K: 512, N: 512},
		{Name: "thin-K", M: 512, K: 16, N: 512},
		{Name: "thin-M", M: 16, K: 512, N: 512},
		{Name: "thin-N", M: 512, K: 512, N: 16},
	}
}
