package nn

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"duet/internal/tensor"
)

// TestMaskedLinearMatchesDense: a MaskedLinear's passes skip the products
// its degrees make dead, and give the dense layer's bits for it all: out,
// dX, db, and dW once the dense gradient's disallowed cells are cleared,
// at 1, 2 and 3 workers, for the input, hidden and output layers of a MADE
// (block-ordered or cyclic degrees on either side) at widths that are not
// tile multiples.
func TestMaskedLinearMatchesDense(t *testing.T) {
	const cols, batch = 6, 37
	block := func(n int) []int { // ascending runs, as MADE's blocks
		d := make([]int, n)
		for i := range d {
			d[i] = 1 + i*cols/n
		}
		return d
	}
	cyclic := func(n, first int) []int { // as MADE's hidden units
		d := make([]int, n)
		for i := range d {
			d[i] = first + i%(cols-1)
		}
		return d
	}
	for _, layer := range []struct {
		name          string
		inDeg, outDeg []int
	}{
		{"input", block(45), cyclic(70, 1)},
		{"hidden", cyclic(70, 1), cyclic(70, 1)},
		{"output", cyclic(70, 2), block(90)},
	} {
		for workers := 1; workers <= 3; workers++ {
			w := tensor.NewWorkers(workers)
			rng := rand.New(rand.NewSource(int64(workers)))
			masked := NewMaskedLinear(layer.inDeg, layer.outDeg, rand.New(rand.NewSource(9)))
			dense := NewLinear(masked.In, masked.Out, rng)
			copy(dense.Weight.W.Data, masked.Weight.W.Data)
			tensor.RandUniform(masked.Bias.W, 1, rng)
			copy(dense.Bias.W.Data, masked.Bias.W.Data)
			x, dy := tensor.New(batch, masked.In), tensor.New(batch, masked.Out)
			tensor.RandUniform(x, 1, rng)
			tensor.RandUniform(dy, 1, rng)
			for i := range x.Data {
				if rng.Intn(4) == 0 {
					x.Data[i] *= 0 // ±0 activations, as after a ReLU
				}
			}
			name := fmt.Sprintf("%s layer, %d workers", layer.name, workers)
			same(t, name+" out", masked.Forward(w, x).Data, dense.Forward(w, x).Data)
			same(t, name+" dX", masked.Backward(w, dy.Clone()).Data, dense.Backward(w, dy.Clone()).Data)
			for i := range dense.Weight.G.Data {
				if !masked.Allowed(i/masked.Out, i%masked.Out) {
					dense.Weight.G.Data[i] = 0
				}
			}
			same(t, name+" dW", masked.Weight.G.Data, dense.Weight.G.Data)
			same(t, name+" db", masked.Bias.G.Data, dense.Bias.G.Data)
			w.Close()
		}
	}
}

func same(t *testing.T, name string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: element %d is %v (%#x), dense %v (%#x)", name, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}
