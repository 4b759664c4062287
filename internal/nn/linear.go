package nn

import (
	"math/rand"

	"duet/internal/tensor"
)

// Linear is a fully connected layer: Y = X·W + b with W of shape In×Out.
type Linear struct {
	In, Out int
	Weight  *Param // In×Out
	Bias    *Param // 1×Out

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

// Forward computes X·W + b.
func (l *Linear) Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	mustCols(x, l.In, "Linear")
	l.x = x
	out := outBuf(&l.out, x.Rows, l.Out)
	w.Mul(out, x, l.Weight.W)
	out.AddRowVector(w, l.Bias.W.Data)
	return out
}

// Backward accumulates dW = Xᵀ·dOut, db = Σ dOut and returns dX = dOut·Wᵀ.
func (l *Linear) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	w.MulATAdd(l.Weight.G, l.x, dOut)
	// Column ranges, rows still ascending: each bias cell sums its column in
	// the order the serial loop did.
	w.ParallelFor(l.Out, tensor.RowGrain(dOut.Rows), func(lo, hi int) {
		bg := l.Bias.G.Data[lo:hi]
		for r := 0; r < dOut.Rows; r++ {
			for c, v := range dOut.Row(r)[lo:hi] {
				bg[c] += v
			}
		}
	})
	dIn := outBuf(&l.dIn, dOut.Rows, l.In)
	w.MulBT(dIn, dOut, l.Weight.W)
	return dIn
}

// ReleaseBuffers also forgets the saved input, which the caller owns.
func (l *Linear) ReleaseBuffers() {
	l.x = nil
	l.buffers.ReleaseBuffers()
}

// Params returns the weight and bias parameters.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

// MaskedLinear is a Linear layer with MADE connectivity: weight (i, o) exists
// iff OutDeg[o] >= InDeg[i] (Allowed). Disallowed weights are zero at
// initialization and their gradients are zeroed in Backward, so they remain
// exactly zero under Adam (which makes zero updates for identically-zero
// gradients).
type MaskedLinear struct {
	Linear
	InDeg, OutDeg []int // one degree per input unit and per output unit
}

// NewMaskedLinear creates a masked fully connected layer with len(inDeg)
// inputs and len(outDeg) outputs; it retains the degree vectors.
func NewMaskedLinear(inDeg, outDeg []int, rng *rand.Rand) *MaskedLinear {
	l := &MaskedLinear{Linear: *NewLinear(len(inDeg), len(outDeg), rng), InDeg: inDeg, OutDeg: outDeg}
	l.Weight.Name = "masked.w"
	l.Bias.Name = "masked.b"
	l.zeroDisallowed(tensor.Default(), l.Weight.W)
	return l
}

// Allowed reports whether weight (i, o) exists.
func (l *MaskedLinear) Allowed(i, o int) bool { return l.OutDeg[o] >= l.InDeg[i] }

// zeroDisallowed multiplies every disallowed cell of the In×Out matrix m by
// zero. Multiplying rather than assigning keeps a negative initial draw as
// -0: those bits are part of every model's weights, which golden tests pin.
func (l *MaskedLinear) zeroDisallowed(w *tensor.Workers, m *tensor.Matrix) {
	w.ParallelFor(l.In, tensor.RowGrain(l.Out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row, di := m.Row(i)[:len(l.OutDeg)], l.InDeg[i] // one bounds check per row
			for o, do := range l.OutDeg {
				if do < di {
					row[o] *= 0
				}
			}
		}
	})
}

// Backward zeroes the gradient of disallowed weights after the usual
// accumulation so the connectivity pattern is invariant under training.
func (l *MaskedLinear) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dIn := l.Linear.Backward(w, dOut)
	l.zeroDisallowed(w, l.Weight.G)
	return dIn
}
