package cake_test

import (
	"fmt"

	cake "repro"
)

// ExampleGemm multiplies two small matrices with the one-shot API.
func ExampleGemm() {
	a := cake.FromSlice(2, 2, []float32{1, 2, 3, 4})
	b := cake.FromSlice(2, 2, []float32{5, 6, 7, 8})
	c := cake.NewMatrix[float32](2, 2)
	if err := cake.Gemm(c, a, b); err != nil {
		panic(err)
	}
	fmt.Println(c.At(0, 0), c.At(0, 1))
	fmt.Println(c.At(1, 0), c.At(1, 1))
	// Output:
	// 19 22
	// 43 50
}

// ExamplePlan shows the CB block the theory selects for a Table 2 machine.
func ExamplePlan() {
	cfg, err := cake.Plan[float32](cake.IntelI9(), 23040, 23040, 23040)
	if err != nil {
		panic(err)
	}
	fmt.Println(cfg)
	fmt.Println(cfg.Shape())
	// Output:
	// cake{p=10 mc=168 kc=176 α=1 tile=8x8}
	// CB[1680x176x1680 p=10 mc=168 alpha=1]
}

// ExampleGemmT multiplies with a transposed left operand (A stored K×M).
func ExampleGemmT() {
	// Logical A is 2×3; we store its transpose (3×2).
	aT := cake.FromSlice(3, 2, []float64{1, 4, 2, 5, 3, 6})
	b := cake.FromSlice(3, 1, []float64{1, 1, 1})
	c := cake.NewMatrix[float64](2, 1)
	if err := cake.GemmT(c, aT, b, true, false); err != nil {
		panic(err)
	}
	fmt.Println(c.At(0, 0), c.At(1, 0))
	// Output:
	// 6 15
}
