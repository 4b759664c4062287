package nn

import (
	"math/rand"

	"duet/internal/tensor"
)

// Linear is a fully connected layer: Y = X·W + b with W of shape In×Out.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out, nil when created with NewLinearNoBias

	x *tensor.Matrix // input saved by Forward
	buffers
}

// NewLinear creates a Linear layer with Xavier-initialized weights.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out,
		Weight: NewParam("linear.w", in, out),
		Bias:   NewParam("linear.b", 1, out),
	}
	tensor.XavierInit(l.Weight.W, in, out, rng)
	return l
}

// NewLinearNoBias creates a Linear layer without a bias term.
func NewLinearNoBias(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{In: in, Out: out, Weight: NewParam("linear.w", in, out)}
	tensor.XavierInit(l.Weight.W, in, out, rng)
	return l
}

// Forward computes X·W + b.
func (l *Linear) Forward(x *tensor.Matrix) *tensor.Matrix {
	mustCols(x, l.In, "Linear")
	l.x = x
	out := outBuf(&l.out, x.Rows, l.Out)
	tensor.Mul(out, x, l.Weight.W)
	if l.Bias != nil {
		out.AddRowVector(l.Bias.W.Data)
	}
	return out
}

// Backward accumulates dW = Xᵀ·dOut, db = Σ dOut and returns dX = dOut·Wᵀ.
func (l *Linear) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	tensor.MulATAdd(l.Weight.G, l.x, dOut)
	if l.Bias != nil {
		// Column ranges, rows still ascending: each bias cell sums its column
		// in the order the serial loop did.
		tensor.ParallelFor(l.Out, tensor.RowGrain(dOut.Rows), func(lo, hi int) {
			bg := l.Bias.G.Data[lo:hi]
			for r := 0; r < dOut.Rows; r++ {
				for c, v := range dOut.Row(r)[lo:hi] {
					bg[c] += v
				}
			}
		})
	}
	dIn := outBuf(&l.dIn, dOut.Rows, l.In)
	tensor.MulBT(dIn, dOut, l.Weight.W)
	return dIn
}

// ReleaseBuffers also forgets the saved input, which the caller owns.
func (l *Linear) ReleaseBuffers() {
	l.x = nil
	l.buffers.ReleaseBuffers()
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param {
	if l.Bias == nil {
		return []*Param{l.Weight}
	}
	return []*Param{l.Weight, l.Bias}
}

// MaskedLinear is a Linear layer whose weight matrix is elementwise gated by
// a fixed binary mask (MADE-style). Masked entries are zero at initialization
// and their gradients are zeroed in Backward, so they remain exactly zero
// under any of the optimizers in this package (both SGD and Adam make zero
// updates for identically-zero gradients).
type MaskedLinear struct {
	Linear
	Mask *tensor.Matrix // In×Out, entries 0 or 1
}

// NewMaskedLinear creates a masked fully connected layer. The mask is
// retained (not copied) and applied to the initial weights immediately.
func NewMaskedLinear(in, out int, mask *tensor.Matrix, rng *rand.Rand) *MaskedLinear {
	if mask.Rows != in || mask.Cols != out {
		panic("nn: MaskedLinear mask shape mismatch")
	}
	l := &MaskedLinear{Linear: *NewLinear(in, out, rng), Mask: mask}
	l.Weight.Name = "masked.w"
	l.Bias.Name = "masked.b"
	l.Weight.W.Hadamard(mask)
	return l
}

// Backward zeroes the gradient of masked-out weights after the usual
// accumulation so the connectivity pattern is invariant under training.
func (l *MaskedLinear) Backward(dOut *tensor.Matrix) *tensor.Matrix {
	before := l.Weight.G // MulATAdd accumulates; mask everything accumulated so far
	dIn := l.Linear.Backward(dOut)
	before.Hadamard(l.Mask)
	return dIn
}
