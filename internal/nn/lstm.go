package nn

import (
	"math"
	"math/rand"

	"duet/internal/tensor"
)

// LSTM is a single-layer LSTM unrolled over short sequences. It exists for
// the RNN variant of Duet's Multiple-Predicate Supporting Network, where the
// sequence length is the number of predicates on one column (a handful at
// most), so a straightforward unrolled implementation is both simple and
// fast. Gate layout inside the 4H-wide projections is [input, forget, cell,
// output].
type LSTM struct {
	In, Hidden int
	Wx         *Param // In×4H
	Wh         *Param // H×4H
	B          *Param // 1×4H

	steps []lstmStep // per-timestep caches from the last Forward
	batch int
}

type lstmStep struct {
	x          *tensor.Matrix // input at t (caller-owned)
	i, f, g, o []float32      // gate activations, batch×H flattened
	c, tanhC   []float32      // cell state and tanh(cell)
	hPrev      []float32      // previous hidden state
	cPrev      []float32
	h          *tensor.Matrix // output hidden state
}

// NewLSTM creates an LSTM with Xavier-initialized projections and the
// customary forget-gate bias of 1.
func NewLSTM(in, hidden int, rng *rand.Rand) *LSTM {
	l := &LSTM{In: in, Hidden: hidden,
		Wx: NewParam("lstm.wx", in, 4*hidden),
		Wh: NewParam("lstm.wh", hidden, 4*hidden),
		B:  NewParam("lstm.b", 1, 4*hidden),
	}
	tensor.XavierInit(l.Wx.W, in, 4*hidden, rng)
	tensor.XavierInit(l.Wh.W, hidden, 4*hidden, rng)
	for j := 0; j < hidden; j++ {
		l.B.W.Data[hidden+j] = 1 // forget gate
	}
	return l
}

// Params returns the three LSTM parameters.
func (l *LSTM) Params() []*Param { return []*Param{l.Wx, l.Wh, l.B} }

func sigmoid64(v float32) float32 { return float32(1.0 / (1.0 + math.Exp(-float64(v)))) }

// Forward runs the LSTM over seq (each element batch×In, same batch size)
// starting from zero state and returns the hidden state after every step.
func (l *LSTM) Forward(w *tensor.Workers, seq []*tensor.Matrix) []*tensor.Matrix {
	if len(seq) == 0 {
		return nil
	}
	batch := seq[0].Rows
	l.batch = batch
	l.steps = l.steps[:0]
	H := l.Hidden
	hPrev := make([]float32, batch*H)
	cPrev := make([]float32, batch*H)
	z := tensor.New(batch, 4*H)
	hs := make([]*tensor.Matrix, len(seq))
	for t, x := range seq {
		w.Mul(z, x, l.Wx.W)
		hm := tensor.FromSlice(batch, H, hPrev)
		zh := tensor.New(batch, 4*H)
		w.Mul(zh, hm, l.Wh.W)
		z.Add(zh)
		z.AddRowVector(w, l.B.W.Data)

		st := lstmStep{x: x,
			i: make([]float32, batch*H), f: make([]float32, batch*H),
			g: make([]float32, batch*H), o: make([]float32, batch*H),
			c: make([]float32, batch*H), tanhC: make([]float32, batch*H),
			hPrev: hPrev, cPrev: cPrev,
			h: tensor.New(batch, H),
		}
		for b := 0; b < batch; b++ {
			zr := z.Row(b)
			base := b * H
			for j := 0; j < H; j++ {
				i := sigmoid64(zr[j])
				f := sigmoid64(zr[H+j])
				g := float32(math.Tanh(float64(zr[2*H+j])))
				o := sigmoid64(zr[3*H+j])
				c := f*cPrev[base+j] + i*g
				tc := float32(math.Tanh(float64(c)))
				st.i[base+j], st.f[base+j], st.g[base+j], st.o[base+j] = i, f, g, o
				st.c[base+j], st.tanhC[base+j] = c, tc
				st.h.Data[base+j] = o * tc
			}
		}
		l.steps = append(l.steps, st)
		hs[t] = st.h
		hPrev = st.h.Data
		cPrev = st.c
	}
	return hs
}

// Backward consumes the gradient of every step's hidden state (entries may
// be nil for steps whose output is unused) and returns the gradient of every
// input, accumulating parameter gradients.
func (l *LSTM) Backward(w *tensor.Workers, dHs []*tensor.Matrix) []*tensor.Matrix {
	batch, H := l.batch, l.Hidden
	dh := make([]float32, batch*H)
	dc := make([]float32, batch*H)
	dz := tensor.New(batch, 4*H)
	dXs := make([]*tensor.Matrix, len(l.steps))
	for t := len(l.steps) - 1; t >= 0; t-- {
		st := l.steps[t]
		if dHs[t] != nil {
			for i, v := range dHs[t].Data {
				dh[i] += v
			}
		}
		for b := 0; b < batch; b++ {
			base := b * H
			dzr := dz.Row(b)
			for j := 0; j < H; j++ {
				k := base + j
				i, f, g, o := st.i[k], st.f[k], st.g[k], st.o[k]
				tc := st.tanhC[k]
				dhv := dh[k]
				do := dhv * tc
				dcv := dc[k] + dhv*o*(1-tc*tc)
				di := dcv * g
				dg := dcv * i
				df := dcv * st.cPrev[k]
				dc[k] = dcv * f // becomes dc_{t-1}
				dzr[j] = di * i * (1 - i)
				dzr[H+j] = df * f * (1 - f)
				dzr[2*H+j] = dg * (1 - g*g)
				dzr[3*H+j] = do * o * (1 - o)
			}
		}
		// Parameter gradients.
		w.MulATAdd(l.Wx.G, st.x, dz)
		hPrevM := tensor.FromSlice(batch, H, st.hPrev)
		w.MulATAdd(l.Wh.G, hPrevM, dz)
		bg := l.B.G.Data
		for b := 0; b < batch; b++ {
			for c, v := range dz.Row(b) {
				bg[c] += v
			}
		}
		// Input and recurrent gradients.
		dx := tensor.New(batch, l.In)
		w.MulBT(dx, dz, l.Wx.W)
		dXs[t] = dx
		dhPrev := tensor.New(batch, H)
		w.MulBT(dhPrev, dz, l.Wh.W)
		copy(dh, dhPrev.Data)
	}
	return dXs
}
