// Package nn implements the neural-network substrate: layers with explicit
// forward/backward passes, losses, and optimizers. There is no autodiff tape;
// every model in this repository is a feedforward DAG, so each layer stores
// what it needs during Forward and implements Backward(dOut) -> dIn. Gradient
// correctness for every layer is verified against central finite differences
// in the package tests.
package nn

import (
	"fmt"

	"duet/internal/tensor"
)

// Param is one trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Matrix // value
	G    *tensor.Matrix // gradient, same shape as W
}

// NewParam allocates a parameter and its zeroed gradient.
func NewParam(name string, rows, cols int) *Param {
	return &Param{Name: name, W: tensor.New(rows, cols), G: tensor.New(rows, cols)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() { p.G.Zero() }

// Layer is a differentiable module. Forward must be called before Backward;
// Backward consumes the upstream gradient dOut (which the layer may reuse as
// scratch) and returns the gradient with respect to the layer input.
// Parameter gradients are accumulated into Params()[i].G.
//
// A layer keeps the activations and input gradients of its last batch so the
// next one reuses the storage. ReleaseBuffers drops them — after training
// they are a whole training batch wide, and a model that goes on to serve
// through a compiled plan never touches them again. The next Forward
// allocates afresh; Backward needs a Forward first, as always.
//
// Both passes split their work across the worker set the caller passes, so a
// model's caller decides how many cores its passes take.
type Layer interface {
	Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix
	Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix
	Params() []*Param
	ReleaseBuffers()
}

// buffers is what a layer retains between calls: Forward's result and
// Backward's.
type buffers struct {
	out *tensor.Matrix
	dIn *tensor.Matrix
}

// ReleaseBuffers implements Layer for layers that retain nothing else.
func (b *buffers) ReleaseBuffers() { b.out, b.dIn = nil, nil }

// Sequential chains layers back to back.
type Sequential struct {
	Layers []Layer
}

// NewSequential builds a Sequential from the given layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward runs all layers in order.
func (s *Sequential) Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	for _, l := range s.Layers {
		x = l.Forward(w, x)
	}
	return x
}

// Backward runs all layers in reverse order.
func (s *Sequential) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		dOut = s.Layers[i].Backward(w, dOut)
	}
	return dOut
}

// ReleaseBuffers releases every layer's buffers.
func (s *Sequential) ReleaseBuffers() {
	for _, l := range s.Layers {
		l.ReleaseBuffers()
	}
}

// Params returns the concatenated parameters of all layers.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// ZeroGrads clears the gradients of all params.
func ZeroGrads(params []*Param) {
	for _, p := range params {
		p.ZeroGrad()
	}
}

// NumParams returns the total number of scalar parameters.
func NumParams(params []*Param) int {
	n := 0
	for _, p := range params {
		n += len(p.W.Data)
	}
	return n
}

// SizeBytes returns the in-memory size of the parameter values (float32).
func SizeBytes(params []*Param) int64 { return int64(NumParams(params)) * 4 }

// outBuf returns a cached output buffer with the requested shape. The buffer
// keeps its backing storage across batch-size changes (Resize reuses
// capacity), so a serving loop alternating between micro-batch sizes reaches
// a zero-allocation steady state once it has seen its largest batch.
func outBuf(buf **tensor.Matrix, rows, cols int) *tensor.Matrix {
	if *buf == nil {
		*buf = tensor.New(rows, cols)
		return *buf
	}
	return (*buf).Resize(rows, cols)
}

func mustCols(x *tensor.Matrix, want int, layer string) {
	if x.Cols != want {
		panic(fmt.Sprintf("nn: %s expected %d input columns, got %d", layer, want, x.Cols))
	}
}
