package nn

import (
	"math"

	"duet/internal/tensor"
)

// Adam is the Adam optimizer with bias correction (Kingma & Ba, 2015). The
// original Naru/Duet training loops both use Adam with lr=2e-4..1e-3.
type Adam struct {
	LR, Beta1, Beta2, Eps float64

	t int
	m map[*Param]*tensor.Matrix
	v map[*Param]*tensor.Matrix
}

// NewAdam returns an Adam optimizer with the standard betas (0.9, 0.999).
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: make(map[*Param]*tensor.Matrix), v: make(map[*Param]*tensor.Matrix)}
}

// Step applies one Adam update, splitting each parameter across w.
func (o *Adam) Step(w *tensor.Workers, params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	lr := o.LR * math.Sqrt(c2) / c1
	b1 := float32(o.Beta1)
	b2 := float32(o.Beta2)
	for _, p := range params {
		m := o.m[p]
		if m == nil {
			m = tensor.New(p.W.Rows, p.W.Cols)
			o.m[p] = m
			o.v[p] = tensor.New(p.W.Rows, p.W.Cols)
		}
		v := o.v[p]
		w.ParallelFor(len(p.G.Data), tensor.ElemGrain, func(lo, hi int) {
			ms, vs, ws := m.Data[lo:hi], v.Data[lo:hi], p.W.Data[lo:hi]
			for i, g := range p.G.Data[lo:hi] {
				ms[i] = b1*ms[i] + (1-b1)*g
				vs[i] = b2*vs[i] + (1-b2)*g*g
				ws[i] -= float32(lr * float64(ms[i]) / (math.Sqrt(float64(vs[i])) + o.Eps))
			}
		})
	}
}

// ClipGradNorm rescales all gradients so their global L2 norm is at most
// maxNorm, and returns the pre-clip norm. It guards the hybrid Q-Error loss
// against the gradient explosions the paper reports for UAE.
func ClipGradNorm(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.G.Data {
			sq += float64(g) * float64(g)
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := float32(maxNorm / norm)
		for _, p := range params {
			p.G.Scale(scale)
		}
	}
	return norm
}
