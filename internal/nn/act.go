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
		tensor.PassIfPositive(out.Data[lo:hi], x.Data[lo:hi], x.Data[lo:hi])
	})
	return out
}

// Backward passes gradients where the forward output was positive.
func (l *ReLU) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	w.ParallelFor(len(dOut.Data), tensor.ElemGrain, func(lo, hi int) {
		tensor.PassIfPositive(dIn.Data[lo:hi], dOut.Data[lo:hi], l.out.Data[lo:hi])
	})
	return dIn
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
