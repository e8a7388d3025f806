// DNN inference: the paper's motivating workload (Section 1 — "most
// computations in the forward pass of a convolutional neural network
// consist of one matrix multiplication per convolutional layer").
//
// Each convolution of a small VGG-style CNN is lowered to a GEMM via
// im2col (internal/convnet) and executed through one reusable CAKE
// executor — the drop-in-library usage the paper describes. The first
// layer is cross-checked against a direct convolution, and the run reports
// the per-layer GEMM shapes, block grids and packing share, then runs the
// layers as one network over a batch of images.
//
//	go run ./examples/dnn
package main

import (
	"fmt"
	"log"
	"math/rand"
	"slices"
	"time"

	cake "repro"
	"repro/internal/convnet"
	"repro/internal/core"
	"repro/internal/matrix"
)

func main() {
	rng := rand.New(rand.NewSource(7))
	const side = 64
	conv := func(in, out int) convnet.ConvSpec {
		return convnet.ConvSpec{InC: in, OutC: out, KH: 3, KW: 3, Stride: 1, Pad: 1}
	}
	specs := []convnet.ConvSpec{conv(3, 32), conv(32, 64), conv(64, 128), conv(128, 128)}
	pool := []bool{false, true, false, true}

	layers := make([]*convnet.Layer[float32], len(specs))
	for i, s := range specs {
		l, err := convnet.NewLayer[float32](fmt.Sprintf("conv%d", i+1), s, true, rng)
		if err != nil {
			log.Fatal(err)
		}
		layers[i] = l
	}

	// One executor for every layer's GEMM, planned for the largest shape.
	cfg, err := cake.Plan[float32](cake.Host(), 128, 128*9, side*side)
	if err != nil {
		log.Fatal(err)
	}
	exec, err := core.NewExecutor[float32](cfg, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer exec.Close()

	input := convnet.NewTensor[float32](3, side, side)
	input.Randomize(rng)

	// Correctness: layer 1 via CAKE GEMM ≡ direct convolution.
	plain := *layers[0]
	plain.ReLU = false
	gemmOut, _, err := plain.Forward(input, exec)
	if err != nil {
		log.Fatal(err)
	}
	ref, err := convnet.DirectConv(input, &plain)
	if err != nil {
		log.Fatal(err)
	}
	gm := matrix.FromSlice(1, len(gemmOut.Data), gemmOut.Data)
	rm := matrix.FromSlice(1, len(ref.Data), ref.Data)
	if !gm.AlmostEqual(rm, 27, 1e-4) {
		log.Fatalf("im2col GEMM disagrees with direct conv: %g", gm.MaxAbsDiff(rm))
	}
	fmt.Println("conv-as-GEMM verified against direct convolution")

	// Per-layer timing through the network.
	act := input
	var totalFlops, totalSec float64
	for i, l := range layers {
		start := time.Now()
		out, st, err := l.Forward(act, exec)
		if err != nil {
			log.Fatal(err)
		}
		el := time.Since(start)
		m := l.Spec.OutC
		k := l.Spec.InC * l.Spec.KH * l.Spec.KW
		n := out.H * out.W
		fl := 2 * float64(m) * float64(k) * float64(n)
		totalFlops += fl
		totalSec += el.Seconds()
		fmt.Printf("%-6s GEMM %4dx%4dx%4d  grid %v  pack %4.1f%%  %9v  %6.2f GFLOP/s\n",
			l.Name, m, k, n, st.Grid, 100*st.PackShare(), el.Round(time.Microsecond), fl/el.Seconds()/1e9)
		if pool[i] {
			out = convnet.MaxPool2x2(out)
		}
		act = out
	}
	fmt.Printf("forward pass: %.1f MFLOP in %.1f ms (%.2f GFLOP/s overall), final activation %dx%dx%d\n",
		totalFlops/1e6, totalSec*1e3, totalFlops/totalSec/1e9, act.C, act.H, act.W)

	// The same layers as one network: a single image through Forward, then
	// a batch of four (the first being that image) through ForwardBatch,
	// one batched GEMM per layer that packs each layer's weights once for
	// the whole batch. Both must reproduce the per-layer pass bit for bit.
	net, err := convnet.NewNetwork(exec, layers, pool)
	if err != nil {
		log.Fatal(err)
	}
	single, _, err := net.Forward(input)
	if err != nil {
		log.Fatal(err)
	}
	batch := []*convnet.Tensor[float32]{input}
	for len(batch) < 4 {
		img := convnet.NewTensor[float32](3, side, side)
		img.Randomize(rng)
		batch = append(batch, img)
	}
	start := time.Now()
	outs, st, err := net.ForwardBatch(batch)
	if err != nil {
		log.Fatal(err)
	}
	el := time.Since(start)
	if !slices.Equal(single.Data, act.Data) || !slices.Equal(outs[0].Data, act.Data) {
		log.Fatal("network forward differs from the per-layer pass")
	}
	fmt.Printf("network, batch of %d: %.1f ms, pack %.1f%% (%.0f%% of it hidden under compute), bit-identical to the per-layer pass\n",
		len(batch), el.Seconds()*1e3, 100*st.PackShare(), 100*st.OverlapShare())
}
