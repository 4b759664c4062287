package nn

import (
	"math"

	"duet/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct{ buffers }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0): x where x > 0, else +0 (for -0, NaN and
// negatives alike).
func (l *ReLU) Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	out := outBuf(&l.out, x.Rows, x.Cols)
	w.ParallelFor(len(x.Data), tensor.ElemGrain, func(lo, hi int) {
		passIfPositive(out.Data[lo:hi], x.Data[lo:hi], x.Data[lo:hi])
	})
	return out
}

// Backward passes gradients where the forward output was positive.
func (l *ReLU) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	w.ParallelFor(len(dOut.Data), tensor.ElemGrain, func(lo, hi int) {
		passIfPositive(dIn.Data[lo:hi], dOut.Data[lo:hi], l.out.Data[lo:hi])
	})
	return dIn
}

// passIfPositive sets dst[i] to src[i] where gate[i] > 0 and to +0 elsewhere,
// without a branch per element: the comparison becomes an all-ones or
// all-zeros mask over src[i]'s bits. A sign test is a coin flip on a
// training batch's activations, which costs this loop a mispredicted branch
// on every other element. dst, src and gate have the same length.
func passIfPositive(dst, src, gate []float32) {
	dst, src = dst[:len(gate)], src[:len(gate)]
	for i, g := range gate {
		var m uint32
		if g > 0 {
			m = ^uint32(0)
		}
		dst[i] = math.Float32frombits(math.Float32bits(src[i]) & m)
	}
}

// Params returns nil; ReLU has no parameters.
func (l *ReLU) Params() []*Param { return nil }

// Sigmoid is the logistic activation.
type Sigmoid struct{ buffers }

// NewSigmoid returns a Sigmoid activation layer.
func NewSigmoid() *Sigmoid { return &Sigmoid{} }

// Forward computes 1/(1+exp(-x)).
func (l *Sigmoid) Forward(_ *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	out := outBuf(&l.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(1.0 / (1.0 + math.Exp(-float64(v))))
	}
	return out
}

// Backward computes dIn = dOut · y·(1-y).
func (l *Sigmoid) Backward(_ *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	for i, v := range dOut.Data {
		y := l.out.Data[i]
		dIn.Data[i] = v * y * (1 - y)
	}
	return dIn
}

// Params returns nil; Sigmoid has no parameters.
func (l *Sigmoid) Params() []*Param { return nil }
