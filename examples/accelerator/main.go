// Accelerator scenario: CAKE beyond CPUs (paper Section 6.1). This example
// runs the Section 2–3 abstract machine — a processing grid of cores with
// stationary A tiles, broadcast B and inter-core accumulation, the
// architecture of the paper's Figures 1–4 — on real multiplications, and
// shows the measured quantities landing exactly on the closed forms:
// Equation 1 (local memory), Equation 2 (constant external bandwidth) and
// Equation 3 (internal bandwidth growing linearly with cores).
//
//	go run ./examples/accelerator
package main

import (
	"fmt"
	"log"
	"math/rand"

	"repro/internal/cbtheory"
	"repro/internal/gridsim"
	"repro/internal/matrix"
)

func main() {
	const k = 4
	fmt.Printf("grid machine, k=%d, α=1 — scaling cores %d→%d→%d (p = 1, 2, 4)\n",
		k, gridsim.Config{P: 1, K: k}.Cores(), gridsim.Config{P: 2, K: k}.Cores(), gridsim.Config{P: 4, K: k}.Cores())
	fmt.Printf("%-4s %-7s %-12s %-12s %-12s %-12s %-10s\n",
		"p", "cores", "ext BW", "Eq.2", "int BW", "Eq.3", "localMem=Eq.1")

	rng := rand.New(rand.NewSource(1))
	for _, p := range []int{1, 2, 4} {
		cfg := gridsim.Config{P: p, K: k, Alpha: 1}
		bm, bk, bn := cfg.CB().BlockDims()
		// One exact block so the closed forms hold with equality.
		a := matrix.New[float64](bm, bk)
		b := matrix.New[float64](bk, bn)
		a.Randomize(rng)
		b.Randomize(rng)

		got, met, err := gridsim.Multiply(cfg, a, b)
		if err != nil {
			log.Fatal(err)
		}
		want := matrix.New[float64](bm, bn)
		matrix.NaiveGemm(want, a, b)
		if !got.AlmostEqual(want, bk, 1e-12) {
			log.Fatal("grid machine computed the wrong product")
		}

		r := (cfg.Alpha + 1) / cfg.Alpha
		fmt.Printf("%-4d %-7d %-12.2f %-12.2f %-12.2f %-12.2f %v = %v\n",
			p, cfg.Cores(),
			met.ExternalBW(), cbtheory.MinExternalBWTiles(cfg.Alpha, float64(k)),
			met.InternalBW(), cbtheory.InternalBWTiles(r, float64(p), float64(k)),
			met.PeakLocalMem, int64(cbtheory.InternalMemTiles(cfg.Alpha, float64(p), float64(k))))
	}

	fmt.Println()
	fmt.Println("external bandwidth is identical at every p (the constant-bandwidth")
	fmt.Println("property), internal bandwidth and local memory grow with p — the")
	fmt.Println("trade a CB-partitioned accelerator makes (Sections 3.1-3.3), and the")
	fmt.Println("results are verified against the naive reference on every run.")
}
