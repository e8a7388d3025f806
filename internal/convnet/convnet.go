// Package convnet implements the paper's motivating workload (Section 1:
// "most computations in the forward pass of a convolutional neural network
// consist of one matrix multiplication per convolutional layer"): tensors,
// im2col lowering, convolution layers executed as CAKE GEMMs through a
// shared executor, and the direct-convolution reference they are verified
// against.
package convnet

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/matrix"
)

// Tensor is a CHW-layout activation map.
type Tensor[T matrix.Scalar] struct {
	C, H, W int
	Data    []T
}

// NewTensor returns a zeroed C×H×W tensor.
func NewTensor[T matrix.Scalar](c, h, w int) *Tensor[T] {
	if c < 1 || h < 1 || w < 1 {
		panic(fmt.Sprintf("convnet: invalid tensor %dx%dx%d", c, h, w))
	}
	return &Tensor[T]{C: c, H: h, W: w, Data: make([]T, c*h*w)}
}

// At returns element (c, y, x).
func (t *Tensor[T]) At(c, y, x int) T { return t.Data[(c*t.H+y)*t.W+x] }

// Set assigns element (c, y, x).
func (t *Tensor[T]) Set(c, y, x int, v T) { t.Data[(c*t.H+y)*t.W+x] = v }

// Randomize fills the tensor with uniform values in [-1, 1).
func (t *Tensor[T]) Randomize(rng *rand.Rand) {
	for i := range t.Data {
		t.Data[i] = T(2*rng.Float64() - 1)
	}
}

// AsMatrix views the tensor as a C × (H·W) matrix sharing storage.
func (t *Tensor[T]) AsMatrix() *matrix.Matrix[T] {
	return matrix.FromSlice(t.C, t.H*t.W, t.Data)
}

// ConvSpec describes a 2D convolution.
type ConvSpec struct {
	InC, OutC int
	KH, KW    int // kernel height/width
	Stride    int
	Pad       int
}

// Validate reports the first problem with the specification.
func (s ConvSpec) Validate() error {
	switch {
	case s.InC < 1 || s.OutC < 1:
		return fmt.Errorf("convnet: channels %d->%d", s.InC, s.OutC)
	case s.KH < 1 || s.KW < 1:
		return fmt.Errorf("convnet: kernel %dx%d", s.KH, s.KW)
	case s.Stride < 1:
		return fmt.Errorf("convnet: stride %d", s.Stride)
	case s.Pad < 0:
		return fmt.Errorf("convnet: pad %d", s.Pad)
	default:
		return nil
	}
}

// OutDims returns the output spatial dimensions for an input of h×w.
func (s ConvSpec) OutDims(h, w int) (oh, ow int) {
	oh = (h+2*s.Pad-s.KH)/s.Stride + 1
	ow = (w+2*s.Pad-s.KW)/s.Stride + 1
	return
}

// Im2Col lowers in to a patch matrix of (InC·KH·KW) × (OH·OW): one column
// per output position, so conv = weights × patches (the per-layer GEMM of
// the paper's introduction).
func Im2Col[T matrix.Scalar](in *Tensor[T], s ConvSpec) (*matrix.Matrix[T], error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	if in.C != s.InC {
		return nil, fmt.Errorf("convnet: input has %d channels, spec wants %d", in.C, s.InC)
	}
	oh, ow := s.OutDims(in.H, in.W)
	if oh < 1 || ow < 1 {
		return nil, fmt.Errorf("convnet: kernel %dx%d does not fit input %dx%d", s.KH, s.KW, in.H, in.W)
	}
	out := matrix.New[T](s.InC*s.KH*s.KW, oh*ow)
	for c := 0; c < s.InC; c++ {
		for ky := 0; ky < s.KH; ky++ {
			for kx := 0; kx < s.KW; kx++ {
				row := out.Row((c*s.KH+ky)*s.KW + kx)
				for y := 0; y < oh; y++ {
					sy := y*s.Stride + ky - s.Pad
					for x := 0; x < ow; x++ {
						sx := x*s.Stride + kx - s.Pad
						var v T
						if sy >= 0 && sy < in.H && sx >= 0 && sx < in.W {
							v = in.At(c, sy, sx)
						}
						row[y*ow+x] = v
					}
				}
			}
		}
	}
	return out, nil
}

// Layer is one convolution with optional ReLU, weights stored GEMM-ready
// as OutC × (InC·KH·KW).
type Layer[T matrix.Scalar] struct {
	Name    string
	Spec    ConvSpec
	Weights *matrix.Matrix[T]
	ReLU    bool
}

// NewLayer creates a layer with random weights.
func NewLayer[T matrix.Scalar](name string, s ConvSpec, relu bool, rng *rand.Rand) (*Layer[T], error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	w := matrix.New[T](s.OutC, s.InC*s.KH*s.KW)
	w.Randomize(rng)
	return &Layer[T]{Name: name, Spec: s, Weights: w, ReLU: relu}, nil
}

// Forward runs the layer as an im2col GEMM on the shared CAKE executor.
func (l *Layer[T]) Forward(in *Tensor[T], exec *core.Executor[T]) (*Tensor[T], core.Stats, error) {
	patches, err := Im2Col(in, l.Spec)
	if err != nil {
		return nil, core.Stats{}, err
	}
	oh, ow := l.Spec.OutDims(in.H, in.W)
	out := NewTensor[T](l.Spec.OutC, oh, ow)
	st, err := exec.Gemm(out.AsMatrix(), l.Weights, patches)
	if err != nil {
		return nil, st, err
	}
	if l.ReLU {
		for i, v := range out.Data {
			if v < 0 {
				out.Data[i] = 0
			}
		}
	}
	return out, st, nil
}

// ForwardBatch runs the layer over a batch of images as ONE batched GEMM:
// the im2col patch matrices become the B side of a core.Batch whose A side is
// the layer's weight matrix repeated — literally the same *Matrix for every
// call — so the executor packs the weights once and serves every image from
// the panel cache. Results are bit-exact with calling Forward per image.
func (l *Layer[T]) ForwardBatch(ins []*Tensor[T], exec *core.Executor[T]) ([]*Tensor[T], core.Stats, error) {
	if len(ins) == 0 {
		return nil, core.Stats{}, fmt.Errorf("convnet: empty image batch")
	}
	outs := make([]*Tensor[T], len(ins))
	cs := make([]*matrix.Matrix[T], len(ins))
	as := make([]*matrix.Matrix[T], len(ins))
	bs := make([]*matrix.Matrix[T], len(ins))
	for i, in := range ins {
		patches, err := Im2Col(in, l.Spec)
		if err != nil {
			return nil, core.Stats{}, err
		}
		oh, ow := l.Spec.OutDims(in.H, in.W)
		outs[i] = NewTensor[T](l.Spec.OutC, oh, ow)
		cs[i] = outs[i].AsMatrix()
		as[i] = l.Weights
		bs[i] = patches
	}
	st, err := exec.Do(core.Batch[T]{C: cs, A: as, B: bs, Alpha: 1, Beta: 1}, nil)
	if err != nil {
		return nil, st, err
	}
	if l.ReLU {
		for _, out := range outs {
			for i, v := range out.Data {
				if v < 0 {
					out.Data[i] = 0
				}
			}
		}
	}
	return outs, st, nil
}

// DirectConv is the obviously correct reference convolution (no lowering).
func DirectConv[T matrix.Scalar](in *Tensor[T], l *Layer[T]) (*Tensor[T], error) {
	s := l.Spec
	if err := s.Validate(); err != nil {
		return nil, err
	}
	oh, ow := s.OutDims(in.H, in.W)
	out := NewTensor[T](s.OutC, oh, ow)
	for oc := 0; oc < s.OutC; oc++ {
		wrow := l.Weights.Row(oc)
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				var acc T
				for ic := 0; ic < s.InC; ic++ {
					for ky := 0; ky < s.KH; ky++ {
						sy := y*s.Stride + ky - s.Pad
						if sy < 0 || sy >= in.H {
							continue
						}
						for kx := 0; kx < s.KW; kx++ {
							sx := x*s.Stride + kx - s.Pad
							if sx < 0 || sx >= in.W {
								continue
							}
							acc += wrow[(ic*s.KH+ky)*s.KW+kx] * in.At(ic, sy, sx)
						}
					}
				}
				if l.ReLU && acc < 0 {
					acc = 0
				}
				out.Set(oc, y, x, acc)
			}
		}
	}
	return out, nil
}

// MaxPool2x2 downsamples by 2 in each spatial dimension (floor semantics).
func MaxPool2x2[T matrix.Scalar](in *Tensor[T]) *Tensor[T] {
	oh, ow := in.H/2, in.W/2
	if oh < 1 || ow < 1 {
		panic(fmt.Sprintf("convnet: pool input %dx%d too small", in.H, in.W))
	}
	out := NewTensor[T](in.C, oh, ow)
	for c := 0; c < in.C; c++ {
		for y := 0; y < oh; y++ {
			for x := 0; x < ow; x++ {
				m := in.At(c, 2*y, 2*x)
				for _, v := range []T{in.At(c, 2*y, 2*x+1), in.At(c, 2*y+1, 2*x), in.At(c, 2*y+1, 2*x+1)} {
					if v > m {
						m = v
					}
				}
				out.Set(c, y, x, m)
			}
		}
	}
	return out
}

// Network is a sequence of conv layers (with optional pooling between).
type Network[T matrix.Scalar] struct {
	Layers []*Layer[T]
	Pool   []bool // pool after layer i
	exec   *core.Executor[T]
}

// NewNetwork wires layers to a shared executor planned for the largest
// layer GEMM.
func NewNetwork[T matrix.Scalar](exec *core.Executor[T], layers []*Layer[T], pool []bool) (*Network[T], error) {
	if len(pool) != len(layers) {
		return nil, fmt.Errorf("convnet: %d layers but %d pool flags", len(layers), len(pool))
	}
	for i := 1; i < len(layers); i++ {
		if layers[i].Spec.InC != layers[i-1].Spec.OutC {
			return nil, fmt.Errorf("convnet: layer %d expects %d channels, previous produces %d",
				i, layers[i].Spec.InC, layers[i-1].Spec.OutC)
		}
	}
	return &Network[T]{Layers: layers, Pool: pool, exec: exec}, nil
}

// Forward runs the whole network on one image, returning the final
// activation and the total GEMM stats. It is the batch-of-one case of
// ForwardBatch (same code path, so single-image and batched inference can
// never drift apart numerically).
func (n *Network[T]) Forward(in *Tensor[T]) (*Tensor[T], core.Stats, error) {
	outs, total, err := n.ForwardBatch([]*Tensor[T]{in})
	if err != nil {
		return nil, total, err
	}
	return outs[0], total, nil
}

// ForwardBatch runs the whole network over a batch of images with one
// batched GEMM per layer: each layer's weights are packed once for the
// entire image batch instead of once per image. Returns the final
// activations (index-aligned with ins) and the total GEMM stats.
func (n *Network[T]) ForwardBatch(ins []*Tensor[T]) ([]*Tensor[T], core.Stats, error) {
	var total core.Stats
	acts := ins
	for i, l := range n.Layers {
		outs, st, err := l.ForwardBatch(acts, n.exec)
		if err != nil {
			return nil, total, fmt.Errorf("convnet: layer %s: %w", l.Name, err)
		}
		total.Add(st)
		if n.Pool[i] {
			for j := range outs {
				outs[j] = MaxPool2x2(outs[j])
			}
		}
		acts = outs
	}
	return acts, total, nil
}
