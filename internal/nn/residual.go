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
func (l *Residual) Forward(x *tensor.Matrix) *tensor.Matrix {
	fx := l.Inner.Forward(x)
	out := outBuf(&l.out, x.Rows, x.Cols)
	for i, v := range x.Data {
		out.Data[i] = v + fx.Data[i]
	}
	return out
}

// Backward returns dOut + Innerᵀ(dOut).
func (l *Residual) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	dInner := l.Inner.Backward(dOut)
	dIn := outBuf(&l.dIn, dOut.Rows, dOut.Cols)
	for i, v := range dOut.Data {
		dIn.Data[i] = v + dInner.Data[i]
	}
	return dIn
}

// ReleaseBuffers releases the inner stack's buffers too.
func (l *Residual) ReleaseBuffers() {
	l.Inner.ReleaseBuffers()
	l.buffers.ReleaseBuffers()
}

// Params returns the inner layer's parameters.
func (l *Residual) Params() []*Param { return l.Inner.Params() }
