package nn

import "duet/internal/tensor"

// Residual wraps an inner layer stack as y = x + f(x). The inner stack must
// preserve width. In ResMADE the inner stack is MaskedLinear→ReLU→MaskedLinear
// with degree-preserving masks, so the identity skip keeps the autoregressive
// property.
type Residual struct {
	Inner Layer

	buffers
}

// NewResidual wraps inner in a residual connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + Inner(x).
func (l *Residual) Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	fx := l.Inner.Forward(w, x)
	out := outBuf(&l.out, x.Rows, x.Cols)
	w.ParallelFor(len(x.Data), tensor.ElemGrain, func(lo, hi int) { addTo(out.Data[lo:hi], x.Data[lo:hi], fx.Data[lo:hi]) })
	return out
}

// Backward returns dOut + Innerᵀ(dOut).
func (l *Residual) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dInner := l.Inner.Backward(w, dOut)
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	w.ParallelFor(len(dOut.Data), tensor.ElemGrain, func(lo, hi int) { addTo(dIn.Data[lo:hi], dOut.Data[lo:hi], dInner.Data[lo:hi]) })
	return dIn
}

// addTo sets dst[i] = a[i] + b[i]; the three have the same length.
func addTo(dst, a, b []float32) {
	for i, v := range a {
		dst[i] = v + b[i]
	}
}

// ReleaseBuffers releases the inner stack's buffers too.
func (l *Residual) ReleaseBuffers() {
	l.Inner.ReleaseBuffers()
	l.buffers.ReleaseBuffers()
}

// Params returns the inner layer's parameters.
func (l *Residual) Params() []*Param { return l.Inner.Params() }
