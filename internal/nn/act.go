package nn

import (
	"math"

	"duet/internal/tensor"
)

// ReLU is the rectified linear activation.
type ReLU struct{ buffers }

// NewReLU returns a ReLU activation layer.
func NewReLU() *ReLU { return &ReLU{} }

// Forward computes max(x, 0).
func (l *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := outBuf(&l.out, x.Rows, x.Cols)
	tensor.ParallelFor(len(x.Data), tensor.ElemGrain, func(lo, hi int) {
		dst := out.Data[lo:hi]
		for i, v := range x.Data[lo:hi] {
			if v > 0 {
				dst[i] = v
			} else {
				dst[i] = 0
			}
		}
	})
	return out
}

// Backward passes gradients where the forward output was positive.
func (l *ReLU) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	tensor.ParallelFor(len(dOut.Data), tensor.ElemGrain, func(lo, hi int) {
		dst, out := dIn.Data[lo:hi], l.out.Data[lo:hi]
		for i, v := range dOut.Data[lo:hi] {
			if out[i] > 0 {
				dst[i] = v
			} else {
				dst[i] = 0
			}
		}
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
func (l *Sigmoid) Forward(x *tensor.Matrix) *tensor.Matrix {
	out := outBuf(&l.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = float32(1.0 / (1.0 + math.Exp(-float64(v))))
	}
	return out
}

// Backward computes dIn = dOut · y·(1-y).
func (l *Sigmoid) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	for i, v := range dOut.Data {
		y := l.out.Data[i]
		dIn.Data[i] = v * y * (1 - y)
	}
	return dIn
}

// Params returns nil; Sigmoid has no parameters.
func (l *Sigmoid) Params() []*Param { return nil }
