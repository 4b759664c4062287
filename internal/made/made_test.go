package made

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"duet/internal/nn"
	"duet/internal/tensor"
)

func smallConfig(residual bool) Config {
	return Config{
		InBlocks:  []int{3, 2, 4},
		OutBlocks: []int{5, 3, 7},
		Hidden:    []int{16, 16},
		Residual:  residual,
		Seed:      42,
	}
}

// TestAutoregressiveProperty is the central MADE invariant: output block i
// must not change when any input block j >= i changes.
func TestAutoregressiveProperty(t *testing.T) {
	for _, residual := range []bool{false, true} {
		m := New(smallConfig(residual))
		rng := rand.New(rand.NewSource(7))
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			x := tensor.New(1, m.In.Tot)
			tensor.RandUniform(x, 1, rng)
			base := m.Forward(x).Clone()
			// Perturb a random input block j and check outputs < j unchanged
			// and outputs at block <= j-? Specifically outputs i <= j must be
			// unchanged for i <= j (output i depends only on inputs < i).
			j := r.Intn(m.In.N())
			x2 := x.Clone()
			for k := m.In.Off[j]; k < m.In.Off[j]+m.In.Len[j]; k++ {
				x2.Data[k] += float32(1 + r.Float64())
			}
			out2 := m.Forward(x2)
			for i := 0; i <= j; i++ {
				a := m.Out.Slice(base.Row(0), i)
				b := m.Out.Slice(out2.Row(0), i)
				for k := range a {
					if a[k] != b[k] {
						return false
					}
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
			t.Fatalf("residual=%v: %v", residual, err)
		}
	}
}

func TestFirstBlockUnconditional(t *testing.T) {
	m := New(smallConfig(false))
	rng := rand.New(rand.NewSource(8))
	x1 := tensor.New(1, m.In.Tot)
	x2 := tensor.New(1, m.In.Tot)
	tensor.RandUniform(x1, 1, rng)
	tensor.RandUniform(x2, 1, rng)
	o1 := m.Forward(x1).Clone()
	o2 := m.Forward(x2)
	a := m.Out.Slice(o1.Row(0), 0)
	b := m.Out.Slice(o2.Row(0), 0)
	for k := range a {
		if a[k] != b[k] {
			t.Fatal("block 0 depends on input")
		}
	}
}

func TestLastInputBlockUnused(t *testing.T) {
	// No output may depend on the last column's input block.
	m := New(smallConfig(true))
	rng := rand.New(rand.NewSource(9))
	x := tensor.New(1, m.In.Tot)
	tensor.RandUniform(x, 1, rng)
	base := m.Forward(x).Clone()
	last := m.In.N() - 1
	for k := m.In.Off[last]; k < m.In.Tot; k++ {
		x.Data[k] = 99
	}
	out := m.Forward(x)
	if !base.Equal(out) {
		t.Fatal("outputs depend on last input block")
	}
}

func TestSingleColumnModelIsBiasOnly(t *testing.T) {
	m := New(Config{InBlocks: []int{4}, OutBlocks: []int{6}, Hidden: []int{8}, Seed: 1})
	rng := rand.New(rand.NewSource(10))
	x1 := tensor.New(1, 4)
	x2 := tensor.New(1, 4)
	tensor.RandUniform(x1, 1, rng)
	tensor.RandUniform(x2, 1, rng)
	if !m.Forward(x1).Clone().Equal(m.Forward(x2)) {
		t.Fatal("single-column model must ignore its input")
	}
}

func TestGradcheckThroughCE(t *testing.T) {
	m := New(Config{InBlocks: []int{2, 2}, OutBlocks: []int{3, 3}, Hidden: []int{8}, Seed: 2})
	rng := rand.New(rand.NewSource(11))
	x := tensor.New(2, m.In.Tot)
	tensor.RandUniform(x, 1, rng)
	labels := [][]int32{{0, 2}, {1, 1}}
	loss := func() float64 {
		return nn.SoftmaxCE(tensor.Default(), m.Forward(x), m.Out, labels, nil, nil)
	}
	nn.ZeroGrads(m.Params())
	logits := m.Forward(x)
	d := tensor.New(2, m.Out.Tot)
	nn.SoftmaxCE(tensor.Default(), logits, m.Out, labels, d, nil)
	m.Backward(d)
	// Disallowed weight entries are held at zero by init + gradient masking,
	// so forward passes do not apply the rule; finite differences on those
	// entries are meaningless. Collect each masked weight's layer to skip them.
	masked := make(map[*nn.Param]*nn.MaskedLinear)
	for _, l := range m.Masked {
		masked[l.Weight] = l
	}
	const eps = 1e-2
	for _, p := range m.Params() {
		ml := masked[p]
		for i := 0; i < len(p.W.Data); i += 7 { // sample every 7th weight
			if ml != nil && !ml.Allowed(i/ml.Out, i%ml.Out) {
				continue
			}
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := loss()
			p.W.Data[i] = orig - eps
			lm := loss()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(p.G.Data[i])
			if math.Abs(num-ana) > 5e-2*(1+math.Abs(num)) {
				t.Fatalf("%s[%d]: analytic %v numeric %v", p.Name, i, ana, num)
			}
		}
	}
}

func TestTrainingLearnsDependentColumns(t *testing.T) {
	// Two columns where col1 == col0 deterministically: after training, the
	// model should put most conditional mass on the matching value.
	m := New(Config{InBlocks: []int{3, 3}, OutBlocks: []int{3, 3}, Hidden: []int{32, 32}, Seed: 3})
	rng := rand.New(rand.NewSource(12))
	opt := nn.NewAdam(5e-3)
	batch := 32
	x := tensor.New(batch, m.In.Tot)
	labels := make([][]int32, batch)
	d := tensor.New(batch, m.Out.Tot)
	for step := 0; step < 300; step++ {
		x.Zero()
		for b := 0; b < batch; b++ {
			v := int32(rng.Intn(3))
			x.Set(b, int(v), 1) // one-hot col0
			x.Set(b, 3+int(v), 1)
			labels[b] = []int32{v, v}
		}
		nn.ZeroGrads(m.Params())
		logits := m.Forward(x)
		d.Zero()
		nn.SoftmaxCE(tensor.Default(), logits, m.Out, labels, d, nil)
		m.Backward(d)
		opt.Step(tensor.Default(), m.Params())
	}
	// Check P(C1=v | C0=v) is dominant.
	probe := tensor.New(1, m.In.Tot)
	for v := 0; v < 3; v++ {
		probe.Zero()
		probe.Set(0, v, 1)
		logits := m.Forward(probe)
		seg := m.Out.Slice(logits.Row(0), 1)
		probs := make([]float32, 3)
		nn.Softmax(probs, seg)
		if probs[v] < 0.8 {
			t.Fatalf("P(C1=%d|C0=%d)=%v, model failed to learn dependency", v, v, probs[v])
		}
	}
}

func TestParamCount(t *testing.T) {
	m := New(smallConfig(false))
	if nn.NumParams(m.Params()) == 0 {
		t.Fatal("no parameters")
	}
	if nn.SizeBytes(m.Params()) != int64(nn.NumParams(m.Params()))*4 {
		t.Fatal("SizeBytes mismatch")
	}
}

// TestMaskedLayersAndOutputRule: Masked lists every masked layer in build
// order, nested residual ones too, and the output layer's rule is strict:
// output block j reaches only hidden units of degree below j+1.
func TestMaskedLayersAndOutputRule(t *testing.T) {
	for _, tc := range []struct {
		residual bool
		layers   int
	}{{false, 3}, {true, 6}} {
		m := New(smallConfig(tc.residual))
		if len(m.Masked) != tc.layers {
			t.Fatalf("residual=%v: %d masked layers, want %d", tc.residual, len(m.Masked), tc.layers)
		}
		if first, ok := m.Net.Layers[0].(*nn.MaskedLinear); !ok || first != m.Masked[0] {
			t.Fatalf("residual=%v: Masked[0] is not the input layer", tc.residual)
		}
		last := m.Masked[len(m.Masked)-1]
		if last != m.Net.Layers[len(m.Net.Layers)-1] {
			t.Fatalf("residual=%v: the last of Masked is not the output layer", tc.residual)
		}
		hDeg := hiddenDegrees(16, m.In.N())
		for i, d := range hDeg {
			for j := 0; j < m.Out.N(); j++ {
				if got, want := last.Allowed(i, m.Out.Off[j]), j+1 > d; got != want {
					t.Fatalf("residual=%v: hidden unit %d (degree %d) to output block %d allowed=%v, want %v",
						tc.residual, i, d, j, got, want)
				}
			}
		}
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{InBlocks: []int{1, 2}, OutBlocks: []int{1}})
}
