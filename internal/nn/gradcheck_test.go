package nn

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/tensor"
)

// numericalGrad perturbs every parameter scalar and compares the analytic
// gradient against the central finite difference of lossFn.
func checkParamGrads(t *testing.T, params []*Param, lossFn func() float64, runBackward func(), tol float64) {
	t.Helper()
	ZeroGrads(params)
	runBackward()
	const eps = 1e-3
	for _, p := range params {
		for i := range p.W.Data {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := lossFn()
			p.W.Data[i] = orig - eps
			lm := lossFn()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if math.Abs(num-ana) > tol*(1+math.Abs(num)) {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

// lossThroughLayer builds a scalar loss 0.5*sum(y^2) over a layer output so
// dLoss/dy = y.
func halfSquare(y *tensor.Matrix) float64 {
	var s float64
	for _, v := range y.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

func gradOf(y *tensor.Matrix) *tensor.Matrix { return y.Clone() }

func TestLinearGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	l := NewLinear(4, 3, rng)
	x := tensor.New(5, 4)
	tensor.RandUniform(x, 1, rng)
	loss := func() float64 { return halfSquare(l.Forward(x)) }
	checkParamGrads(t, l.Params(), loss, func() {
		y := l.Forward(x)
		l.Backward(gradOf(y))
	}, 2e-2)
}

func TestLinearInputGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	l := NewLinear(4, 3, rng)
	x := tensor.New(2, 4)
	tensor.RandUniform(x, 1, rng)
	y := l.Forward(x)
	dIn := l.Backward(gradOf(y))
	const eps = 1e-3
	for i := range x.Data {
		orig := x.Data[i]
		x.Data[i] = orig + eps
		lp := halfSquare(l.Forward(x))
		x.Data[i] = orig - eps
		lm := halfSquare(l.Forward(x))
		x.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(dIn.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("x[%d]: analytic %v numeric %v", i, dIn.Data[i], num)
		}
	}
}

func TestMaskedLinearRespectsMask(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mask := tensor.New(4, 3)
	for i := 0; i < 4; i++ {
		for j := 0; j < 3; j++ {
			if (i+j)%2 == 0 {
				mask.Set(i, j, 1)
			}
		}
	}
	l := NewMaskedLinear(4, 3, mask, rng)
	for i := range mask.Data {
		if mask.Data[i] == 0 && l.Weight.W.Data[i] != 0 {
			t.Fatal("masked weight not zero at init")
		}
	}
	// Train a few Adam steps; masked entries must stay exactly zero.
	opt := NewAdam(1e-2)
	x := tensor.New(8, 4)
	tensor.RandUniform(x, 1, rng)
	for step := 0; step < 5; step++ {
		ZeroGrads(l.Params())
		y := l.Forward(x)
		l.Backward(gradOf(y))
		opt.Step(l.Params())
	}
	for i := range mask.Data {
		if mask.Data[i] == 0 && l.Weight.W.Data[i] != 0 {
			t.Fatalf("masked weight %d drifted to %v", i, l.Weight.W.Data[i])
		}
	}
}

func TestActivationsGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct {
		name  string
		layer Layer
	}{
		{"relu", NewReLU()},
		{"sigmoid", NewSigmoid()},
	} {
		x := tensor.New(3, 5)
		tensor.RandUniform(x, 2, rng)
		// Shift away from 0 so ReLU's kink doesn't break finite differences.
		for i := range x.Data {
			if v := x.Data[i]; v > -0.05 && v < 0.05 {
				x.Data[i] = 0.2
			}
		}
		y := tc.layer.Forward(x)
		dIn := tc.layer.Backward(gradOf(y))
		const eps = 1e-3
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := halfSquare(tc.layer.Forward(x))
			x.Data[i] = orig - eps
			lm := halfSquare(tc.layer.Forward(x))
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(dIn.Data[i])) > 3e-2*(1+math.Abs(num)) {
				t.Fatalf("%s x[%d]: analytic %v numeric %v", tc.name, i, dIn.Data[i], num)
			}
		}
	}
}

func TestSequentialAndResidualGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	inner := NewSequential(NewLinear(6, 6, rng), NewReLU(), NewLinear(6, 6, rng))
	net := NewSequential(NewLinear(4, 6, rng), NewReLU(), NewResidual(inner), NewLinear(6, 2, rng))
	x := tensor.New(3, 4)
	tensor.RandUniform(x, 1, rng)
	loss := func() float64 { return halfSquare(net.Forward(x)) }
	checkParamGrads(t, net.Params(), loss, func() {
		y := net.Forward(x)
		net.Backward(gradOf(y))
	}, 3e-2)
}

// TestReleaseBuffers: releasing drops every retained matrix, down through
// residual and sequential nesting, and the next Forward — at any batch size —
// computes what it would have computed anyway.
func TestReleaseBuffers(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	mask := tensor.New(6, 6)
	for i := range mask.Data {
		mask.Data[i] = float32(i % 2)
	}
	masked := NewMaskedLinear(6, 6, mask, rng)
	lin, relu, sig := NewLinear(4, 6, rng), NewReLU(), NewSigmoid()
	res := NewResidual(NewSequential(masked, relu))
	net := NewSequential(lin, res, sig, NewLinear(6, 6, rng))
	x := tensor.New(64, 4)
	tensor.RandUniform(x, 1, rng)
	want := net.Forward(x).Clone()
	net.Backward(gradOf(want))

	net.ReleaseBuffers()
	for name, b := range map[string]*buffers{
		"linear": &lin.buffers, "masked": &masked.buffers, "relu": &relu.buffers,
		"residual": &res.buffers, "sigmoid": &sig.buffers,
	} {
		if b.out != nil || b.dIn != nil {
			t.Errorf("%s still holds buffers after ReleaseBuffers", name)
		}
	}
	if lin.x != nil || masked.x != nil {
		t.Error("a linear layer still holds its input after ReleaseBuffers")
	}

	row := tensor.New(1, 4)
	copy(row.Row(0), x.Row(7))
	got := net.Forward(row)
	for c, v := range got.Row(0) {
		if v != want.Row(7)[c] {
			t.Fatalf("column %d after release: %v, want %v", c, v, want.Row(7)[c])
		}
	}
	net.Backward(gradOf(got)) // Forward then Backward works as before
}

func TestLSTMGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	l := NewLSTM(3, 4, rng)
	seq := make([]*tensor.Matrix, 3)
	for i := range seq {
		seq[i] = tensor.New(2, 3)
		tensor.RandUniform(seq[i], 1, rng)
	}
	loss := func() float64 {
		hs := l.Forward(seq)
		var s float64
		for _, h := range hs {
			s += halfSquare(h)
		}
		return s
	}
	checkParamGrads(t, l.Params(), loss, func() {
		hs := l.Forward(seq)
		dHs := make([]*tensor.Matrix, len(hs))
		for i, h := range hs {
			dHs[i] = gradOf(h)
		}
		l.Backward(dHs)
	}, 5e-2)
}

func TestLSTMInputGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	l := NewLSTM(2, 3, rng)
	seq := []*tensor.Matrix{tensor.New(1, 2), tensor.New(1, 2)}
	for _, s := range seq {
		tensor.RandUniform(s, 1, rng)
	}
	loss := func() float64 {
		hs := l.Forward(seq)
		var s float64
		for _, h := range hs {
			s += halfSquare(h)
		}
		return s
	}
	hs := l.Forward(seq)
	dHs := make([]*tensor.Matrix, len(hs))
	for i, h := range hs {
		dHs[i] = gradOf(h)
	}
	dXs := l.Backward(dHs)
	const eps = 1e-3
	for si, x := range seq {
		for i := range x.Data {
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := loss()
			x.Data[i] = orig - eps
			lm := loss()
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(dXs[si].Data[i])) > 5e-2*(1+math.Abs(num)) {
				t.Fatalf("seq[%d].x[%d]: analytic %v numeric %v", si, i, dXs[si].Data[i], num)
			}
		}
	}
}

func TestSoftmaxCEGradcheck(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	blocks := NewBlocks([]int{3, 4, 2})
	logits := tensor.New(4, blocks.Tot)
	tensor.RandUniform(logits, 1, rng)
	labels := [][]int32{{0, 1, 1}, {2, 3, 0}, {1, -1, 1}, {0, 0, -1}}
	loss := func() float64 { return SoftmaxCE(logits, blocks, labels, nil, nil) }
	d := tensor.New(4, blocks.Tot)
	SoftmaxCE(logits, blocks, labels, d, nil)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp := loss()
		logits.Data[i] = orig - eps
		lm := loss()
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(d.Data[i])) > 2e-2*(1+math.Abs(num)) {
			t.Fatalf("logit[%d]: analytic %v numeric %v", i, d.Data[i], num)
		}
	}
}

func TestEmbeddingGradAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	e := NewEmbedding(5, 3, rng)
	ZeroGrads(e.Params())
	e.AccumGrad(2, []float32{1, 2, 3})
	e.AccumGrad(2, []float32{1, 0, 0})
	g := e.Table.G.Row(2)
	if g[0] != 2 || g[1] != 2 || g[2] != 3 {
		t.Fatalf("grad row = %v", g)
	}
	if e.Table.G.Row(0)[0] != 0 {
		t.Fatal("unrelated row touched")
	}
}
