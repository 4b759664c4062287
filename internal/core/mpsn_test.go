package core

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/nn"
	"duet/internal/tensor"
)

func randPredSets(rng *rand.Rand, batch, encW, maxLen int) []PredSet {
	sets := make([]PredSet, batch)
	for r := range sets {
		n := rng.Intn(maxLen + 1)
		for k := 0; k < n; k++ {
			enc := make([]float32, encW)
			for i := range enc {
				enc[i] = float32(rng.NormFloat64())
			}
			sets[r] = append(sets[r], enc)
		}
	}
	// Force at least one non-empty and one empty row when possible.
	if batch >= 2 {
		if len(sets[0]) == 0 {
			enc := make([]float32, encW)
			enc[0] = 1
			sets[0] = PredSet{enc}
		}
		sets[1] = nil
	}
	return sets
}

func TestMPSNShapesAndEmptySets(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, kind := range []MPSNKind{MPSNMLP, MPSNRNN, MPSNRec} {
		mp := NewMPSN(kind, 6, 8, 4, rng)
		sets := randPredSets(rand.New(rand.NewSource(2)), 5, 6, 3)
		out := mp.Forward(tensor.Default(), sets)
		if out.Rows != 5 || out.Cols != 4 {
			t.Fatalf("%v: out %dx%d", kind, out.Rows, out.Cols)
		}
		for r, ps := range sets {
			if len(ps) == 0 {
				for _, v := range out.Row(r) {
					if v != 0 {
						t.Fatalf("%v: empty set row %d has nonzero embedding", kind, r)
					}
				}
			}
		}
		if mp.OutDim() != 4 {
			t.Fatalf("%v OutDim", kind)
		}
		if len(mp.Params()) == 0 {
			t.Fatalf("%v has no params", kind)
		}
	}
}

func TestMLPMPSNOrderIrrelevant(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mp := NewMPSN(MPSNMLP, 5, 8, 4, rng)
	a := make([]float32, 5)
	b := make([]float32, 5)
	for i := range a {
		a[i] = float32(rng.NormFloat64())
		b[i] = float32(rng.NormFloat64())
	}
	o1 := mp.Forward(tensor.Default(), []PredSet{{a, b}}).Clone()
	o2 := mp.Forward(tensor.Default(), []PredSet{{b, a}})
	for i := range o1.Data {
		if math.Abs(float64(o1.Data[i]-o2.Data[i])) > 1e-5 {
			t.Fatalf("MLP MPSN depends on predicate order: %v vs %v", o1.Data, o2.Data)
		}
	}
}

func TestRecMPSNOrderRelevant(t *testing.T) {
	// The recursive variant is order-dependent by construction; verify it
	// actually distinguishes orders (otherwise it degenerated).
	rng := rand.New(rand.NewSource(4))
	mp := NewMPSN(MPSNRec, 5, 8, 4, rng)
	a := make([]float32, 5)
	b := make([]float32, 5)
	for i := range a {
		a[i] = float32(rng.NormFloat64() * 2)
		b[i] = float32(rng.NormFloat64() * 2)
	}
	o1 := mp.Forward(tensor.Default(), []PredSet{{a, b}}).Clone()
	o2 := mp.Forward(tensor.Default(), []PredSet{{b, a}})
	diff := 0.0
	for i := range o1.Data {
		diff += math.Abs(float64(o1.Data[i] - o2.Data[i]))
	}
	if diff < 1e-6 {
		t.Fatal("recursive MPSN ignored order")
	}
}

// mpsnLoss runs forward and returns 0.5*sum(out^2); its gradient is out.
func mpsnLoss(mp MPSN, sets []PredSet) float64 {
	out := mp.Forward(tensor.Default(), sets)
	var s float64
	for _, v := range out.Data {
		s += 0.5 * float64(v) * float64(v)
	}
	return s
}

func TestMPSNGradcheck(t *testing.T) {
	for _, kind := range []MPSNKind{MPSNMLP, MPSNRNN, MPSNRec} {
		rng := rand.New(rand.NewSource(5))
		mp := NewMPSN(kind, 4, 6, 3, rng)
		sets := randPredSets(rand.New(rand.NewSource(6)), 4, 4, 3)
		params := mp.Params()
		nn.ZeroGrads(params)
		out := mp.Forward(tensor.Default(), sets)
		mp.Backward(tensor.Default(), out.Clone())
		const eps = 1e-3
		for _, p := range params {
			for i := 0; i < len(p.W.Data); i += 5 {
				orig := p.W.Data[i]
				p.W.Data[i] = orig + eps
				lp := mpsnLoss(mp, sets)
				p.W.Data[i] = orig - eps
				lm := mpsnLoss(mp, sets)
				p.W.Data[i] = orig
				num := (lp - lm) / (2 * eps)
				ana := float64(p.G.Data[i])
				if math.Abs(num-ana) > 6e-2*(1+math.Abs(num)) {
					t.Fatalf("%v %s[%d]: analytic %v numeric %v", kind, p.Name, i, ana, num)
				}
			}
		}
	}
}

func TestMPSNInputGradcheck(t *testing.T) {
	for _, kind := range []MPSNKind{MPSNMLP, MPSNRNN, MPSNRec} {
		rng := rand.New(rand.NewSource(7))
		mp := NewMPSN(kind, 3, 5, 2, rng)
		enc1 := []float32{0.3, -0.2, 0.8}
		enc2 := []float32{-0.5, 0.1, 0.4}
		sets := []PredSet{{enc1, enc2}}
		out := mp.Forward(tensor.Default(), sets)
		dEnc := mp.Backward(tensor.Default(), out.Clone())
		if len(dEnc[0]) != 2 {
			t.Fatalf("%v: got %d encoding grads", kind, len(dEnc[0]))
		}
		const eps = 1e-3
		for pi, enc := range sets[0] {
			for i := range enc {
				orig := enc[i]
				enc[i] = orig + eps
				lp := mpsnLoss(mp, sets)
				enc[i] = orig - eps
				lm := mpsnLoss(mp, sets)
				enc[i] = orig
				num := (lp - lm) / (2 * eps)
				ana := float64(dEnc[0][pi][i])
				if math.Abs(num-ana) > 6e-2*(1+math.Abs(num)) {
					t.Fatalf("%v enc[%d][%d]: analytic %v numeric %v", kind, pi, i, ana, num)
				}
			}
		}
	}
}

func TestMPSNGroupingDeterminism(t *testing.T) {
	// Same input twice must give identical output (grouping map iteration
	// must not leak nondeterminism).
	rng := rand.New(rand.NewSource(8))
	for _, kind := range []MPSNKind{MPSNMLP, MPSNRNN, MPSNRec} {
		mp := NewMPSN(kind, 4, 6, 3, rng)
		sets := randPredSets(rand.New(rand.NewSource(9)), 8, 4, 3)
		a := mp.Forward(tensor.Default(), sets).Clone()
		b := mp.Forward(tensor.Default(), sets)
		if !a.Equal(b) {
			t.Fatalf("%v: nondeterministic forward", kind)
		}
	}
	_ = tensor.New(1, 1)
}
