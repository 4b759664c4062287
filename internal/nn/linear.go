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
	return l.forward(w, x, nil)
}

// Backward accumulates dW = Xᵀ·dOut, db = Σ dOut and returns dX = dOut·Wᵀ.
func (l *Linear) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	return l.backward(w, dOut, nil)
}

// forward and backward run the layer's products through live, the region
// of W that can be nonzero (nil: all of it).
func (l *Linear) forward(w *tensor.Workers, x *tensor.Matrix, live *tensor.Live) *tensor.Matrix {
	mustCols(x, l.In, "Linear")
	l.x = x
	out := outBuf(&l.out, x.Rows, l.Out)
	w.MulLive(out, x, l.Weight.W, live)
	out.AddRowVector(w, l.Bias.W.Data)
	return out
}

func (l *Linear) backward(w *tensor.Workers, dOut *tensor.Matrix, live *tensor.Live) *tensor.Matrix {
	w.MulATAddLive(l.Weight.G, l.x, dOut, live)
	// Column ranges, rows still ascending: each bias cell sums its column in
	// the order the serial loop did, a Saxpy with alpha 1 (an exact product)
	// per row.
	w.ParallelFor(l.Out, tensor.RowGrain(dOut.Rows), func(lo, hi int) {
		bg := l.Bias.G.Data[lo:hi]
		for r := 0; r < dOut.Rows; r++ {
			tensor.Saxpy(1, dOut.Row(r)[lo:hi], bg)
		}
	})
	dIn := outBuf(&l.dIn, dOut.Rows, l.In)
	w.MulBTLive(dIn, dOut, l.Weight.W, live)
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
// gradients). Its three products skip what the degrees make dead
// (tensor.Live), which changes no bit of out, db, an allowed weight's
// gradient or a read column of dX.
type MaskedLinear struct {
	Linear
	InDeg, OutDeg []int // one degree per input unit and per output unit

	read func(i int) bool // the dX columns a caller reads; nil: all
	live *tensor.Live     // built on the first pass: a served model never needs it
}

// NewMaskedLinear creates a masked fully connected layer with len(inDeg)
// inputs and len(outDeg) outputs; it retains the degree vectors.
func NewMaskedLinear(inDeg, outDeg []int, rng *rand.Rand) *MaskedLinear {
	l := &MaskedLinear{Linear: *NewLinear(len(inDeg), len(outDeg), rng), InDeg: inDeg, OutDeg: outDeg}
	l.Weight.Name = "masked.w"
	l.Bias.Name = "masked.b"
	l.zeroDisallowed(tensor.Default(), l.Weight.W, true)
	return l
}

// Allowed reports whether weight (i, o) exists.
func (l *MaskedLinear) Allowed(i, o int) bool { return l.OutDeg[o] >= l.InDeg[i] }

// allowedRow sets allowed[o] to Allowed(i, o) for every output o.
func (l *MaskedLinear) allowedRow(i int, allowed []bool) {
	di := l.InDeg[i]
	for o, do := range l.OutDeg {
		allowed[o] = do >= di
	}
}

// ReadInputs tells the layer which columns of its input gradient its caller
// reads; Backward computes those, and the others' values are unspecified.
func (l *MaskedLinear) ReadInputs(read func(i int) bool) { l.read, l.live = read, nil }

// region returns the layer's live region, building it on first use.
func (l *MaskedLinear) region() *tensor.Live {
	if l.live == nil {
		l.live = tensor.NewLive(l.In, l.Out, l.allowedRow, l.read)
	}
	return l.live
}

// zeroDisallowed zeroes every disallowed cell of the In×Out matrix m. With
// keepSign it multiplies them by zero, which keeps a negative initial draw
// as -0: those bits are part of every model's weights, which golden tests
// pin. Without, it stores +0.
func (l *MaskedLinear) zeroDisallowed(w *tensor.Workers, m *tensor.Matrix, keepSign bool) {
	w.ParallelFor(l.In, tensor.RowGrain(l.Out), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			row, di := m.Row(i)[:len(l.OutDeg)], l.InDeg[i] // one bounds check per row
			for o, do := range l.OutDeg {
				switch {
				case do >= di:
				case keepSign:
					row[o] *= 0
				default:
					row[o] = 0
				}
			}
		}
	})
}

// Forward computes X·W + b over W's live region.
func (l *MaskedLinear) Forward(w *tensor.Workers, x *tensor.Matrix) *tensor.Matrix {
	return l.forward(w, x, l.region())
}

// Backward accumulates the gradients over W's live region and sets every
// disallowed weight's gradient to +0, so the connectivity pattern is
// invariant under training.
func (l *MaskedLinear) Backward(w *tensor.Workers, dOut *tensor.Matrix) *tensor.Matrix {
	dIn := l.backward(w, dOut, l.region())
	l.zeroDisallowed(w, l.Weight.G, false)
	return dIn
}
