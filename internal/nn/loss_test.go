package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"duet/internal/tensor"
)

func TestBlocksLayout(t *testing.T) {
	b := NewBlocks([]int{3, 1, 4})
	if b.Tot != 8 || b.N() != 3 {
		t.Fatalf("layout: %+v", b)
	}
	row := []float32{0, 1, 2, 3, 4, 5, 6, 7}
	if got := b.Slice(row, 2); len(got) != 4 || got[0] != 4 {
		t.Fatalf("Slice: %v", got)
	}
}

func TestSoftmaxNormalizesProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(30)
		logits := make([]float32, n)
		for i := range logits {
			logits[i] = float32(rng.NormFloat64() * 10)
		}
		probs := make([]float32, n)
		Softmax(probs, logits)
		var sum float64
		for _, p := range probs {
			if p < 0 {
				return false
			}
			sum += float64(p)
		}
		return math.Abs(sum-1) < 1e-4
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxExtremeLogits(t *testing.T) {
	probs := make([]float32, 3)
	Softmax(probs, []float32{1000, -1000, 999})
	if math.IsNaN(float64(probs[0])) || probs[0] <= probs[2] {
		t.Fatalf("unstable softmax: %v", probs)
	}
}

func TestLogSumExp(t *testing.T) {
	got := LogSumExp([]float32{0, 0})
	if math.Abs(got-math.Log(2)) > 1e-6 {
		t.Fatalf("LogSumExp([0,0])=%v", got)
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("empty LogSumExp should be -inf")
	}
}

func TestSoftmaxCEKnownValue(t *testing.T) {
	blocks := NewBlocks([]int{2})
	logits := tensor.FromSlice(1, 2, []float32{0, 0})
	loss := SoftmaxCE(logits, blocks, [][]int32{{0}}, nil, nil)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("uniform 2-way CE should be ln2, got %v", loss)
	}
}

func TestSoftmaxCESkipsWildcardLabels(t *testing.T) {
	blocks := NewBlocks([]int{2, 3})
	logits := tensor.New(1, 5)
	full := SoftmaxCE(logits, blocks, [][]int32{{0, 0}}, nil, nil)
	skip := SoftmaxCE(logits, blocks, [][]int32{{0, -1}}, nil, nil)
	if skip >= full {
		t.Fatalf("wildcard block should reduce loss: full=%v skip=%v", full, skip)
	}
	d := tensor.New(1, 5)
	SoftmaxCE(logits, blocks, [][]int32{{0, -1}}, d, nil)
	for i := 2; i < 5; i++ {
		if d.Data[i] != 0 {
			t.Fatalf("gradient leaked into wildcard block: %v", d.Data)
		}
	}
}

// softmaxCESerial is the one-goroutine reference SoftmaxCE must match bit for
// bit: one pass over rows and blocks, the loss summed as it goes.
func softmaxCESerial(logits *tensor.Matrix, blocks Blocks, labels [][]int32, dLogits *tensor.Matrix) float64 {
	invB := 1.0 / float64(logits.Rows)
	var total float64
	for r := 0; r < logits.Rows; r++ {
		for bi := 0; bi < blocks.N(); bi++ {
			y := labels[r][bi]
			if y < 0 {
				continue
			}
			seg := blocks.Slice(logits.Row(r), bi)
			lse := LogSumExp(seg)
			total += lse - float64(seg[y])
			dSeg := blocks.Slice(dLogits.Row(r), bi)
			for j, v := range seg {
				dSeg[j] += float32(math.Exp(float64(v)-lse) * invB)
			}
			dSeg[y] -= float32(invB)
		}
	}
	return total * invB
}

// TestSoftmaxCEParallelMatchesSerial: splitting the batch across workers
// changes neither the loss (a float64 sum, so its order matters) nor any
// gradient bit, with wildcard labels, ragged block widths, a gradient buffer
// that already holds something, and a batch tall enough to fork.
func TestSoftmaxCEParallelMatchesSerial(t *testing.T) {
	defer tensor.SetMaxWorkers(0)
	rng := rand.New(rand.NewSource(11))
	blocks := NewBlocks([]int{3, 70, 1, 130, 9})
	const batch = 400
	logits := tensor.New(batch, blocks.Tot)
	tensor.RandUniform(logits, 6, rng)
	labels := make([][]int32, batch)
	for r := range labels {
		labels[r] = make([]int32, blocks.N())
		for bi, n := range blocks.Len {
			labels[r][bi] = int32(rng.Intn(n+1)) - 1 // -1: wildcard
		}
	}
	prior := tensor.New(batch, blocks.Tot)
	tensor.RandUniform(prior, 1, rng)
	wantD := prior.Clone()
	want := softmaxCESerial(logits, blocks, labels, wantD)
	var terms []float64
	for _, workers := range []int{1, 3} {
		tensor.SetMaxWorkers(workers)
		gotD := prior.Clone()
		got := SoftmaxCE(logits, blocks, labels, gotD, &terms) // terms reused: stale entries must not leak in
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d workers: loss %v (%#x), serial %v (%#x)", workers, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i, v := range wantD.Data {
			if math.Float32bits(gotD.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%d workers: dLogits[%d] = %v, serial %v", workers, i, gotD.Data[i], v)
			}
		}
	}
}

func TestMSE(t *testing.T) {
	p := tensor.FromSlice(1, 2, []float32{1, 3})
	y := tensor.FromSlice(1, 2, []float32{0, 1})
	d := tensor.New(1, 2)
	loss := MSE(p, y, d)
	if math.Abs(loss-2.5) > 1e-6 {
		t.Fatalf("MSE=%v want 2.5", loss)
	}
	if math.Abs(float64(d.Data[1])-2) > 1e-6 {
		t.Fatalf("dMSE=%v want 2", d.Data[1])
	}
}

func TestQErrorLossGradFiniteDiff(t *testing.T) {
	for _, tc := range []struct{ est, act float64 }{
		{100, 10}, {10, 100}, {5, 5.1}, {1e6, 3}, {2, 1e5},
	} {
		loss, dEst := QErrorLossGrad(tc.est, tc.act, 1)
		if loss < 0 {
			t.Fatalf("negative loss for %+v", tc)
		}
		const eps = 1e-4
		lp, _ := QErrorLossGrad(tc.est*(1+eps), tc.act, 1)
		lm, _ := QErrorLossGrad(tc.est*(1-eps), tc.act, 1)
		num := (lp - lm) / (2 * eps * tc.est)
		if math.Abs(num-dEst) > 1e-3*(1+math.Abs(num)) {
			t.Fatalf("est=%v act=%v: analytic %v numeric %v", tc.est, tc.act, dEst, num)
		}
	}
}

func TestQErrorLossDecreasesTowardActual(t *testing.T) {
	// Gradient must always point est toward act.
	l1, d := QErrorLossGrad(100, 10, 1)
	if d <= 0 {
		t.Fatal("over-estimate should have positive dEst")
	}
	l2, d2 := QErrorLossGrad(1, 10, 1)
	if d2 >= 0 {
		t.Fatal("under-estimate should have negative dEst")
	}
	if l1 <= 0 || l2 <= 0 {
		t.Fatal("nonzero Q-Error must have positive loss")
	}
	exact, _ := QErrorLossGrad(10, 10, 1)
	if exact != 1 { // log2(1+1) = 1
		t.Fatalf("exact estimate loss = %v, want log2(2)=1", exact)
	}
}

func TestOptimizersReduceQuadratic(t *testing.T) {
	// Minimize f(w) = 0.5*||w - target||^2; gradient = w - target.
	target := []float32{1, -2, 3}
	p := NewParam("w", 1, 3)
	opt := NewAdam(0.1)
	for i := 0; i < 300; i++ {
		for j := range p.W.Data {
			p.G.Data[j] = p.W.Data[j] - target[j]
		}
		opt.Step([]*Param{p})
	}
	for j := range target {
		if math.Abs(float64(p.W.Data[j]-target[j])) > 0.05 {
			t.Fatalf("Adam failed to converge: %v", p.W.Data)
		}
	}
}

// TestIntervalMass: the mass is an explicit Softmax plus a float64 sum over
// the interval, bit for bit, with the softmax left in probs; an empty
// interval has mass 0.
func TestIntervalMass(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	logits := make([]float32, 37)
	for i := range logits {
		logits[i] = float32(rng.NormFloat64() * 3)
	}
	want := make([]float32, len(logits))
	Softmax(want, logits)
	probs := make([]float32, len(logits))
	for _, iv := range [][2]int32{{0, 36}, {0, 0}, {36, 36}, {5, 20}, {11, 12}} {
		var sum float64
		for v := iv[0]; v <= iv[1]; v++ {
			sum += float64(want[v])
		}
		got := IntervalMass(probs, logits, iv[0], iv[1])
		if math.Float64bits(got) != math.Float64bits(sum) {
			t.Fatalf("interval %v: mass %v, want %v", iv, got, sum)
		}
		for i := range want {
			if math.Float32bits(probs[i]) != math.Float32bits(want[i]) {
				t.Fatalf("interval %v: probs[%d] = %v, want softmax %v", iv, i, probs[i], want[i])
			}
		}
	}
	if got := IntervalMass(probs, logits, 9, 8); got != 0 {
		t.Fatalf("empty interval: mass %v, want 0", got)
	}
}

func TestClipGradNorm(t *testing.T) {
	p := NewParam("w", 1, 2)
	p.G.Data[0], p.G.Data[1] = 3, 4
	norm := ClipGradNorm([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-6 {
		t.Fatalf("pre-clip norm %v want 5", norm)
	}
	if math.Abs(float64(p.G.Data[0])-0.6) > 1e-5 {
		t.Fatalf("clipped grad %v", p.G.Data)
	}
	// Below threshold: untouched.
	p.G.Data[0], p.G.Data[1] = 0.1, 0
	ClipGradNorm([]*Param{p}, 1)
	if p.G.Data[0] != 0.1 {
		t.Fatal("grad below max norm must not change")
	}
}

func TestSaveLoadParamsRoundtrip(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	l1 := NewLinear(3, 4, rng)
	var buf bytes.Buffer
	if err := SaveParams(&buf, l1.Params()); err != nil {
		t.Fatal(err)
	}
	l2 := NewLinear(3, 4, rand.New(rand.NewSource(99)))
	if l2.Weight.W.Equal(l1.Weight.W) {
		t.Fatal("test setup: weights should differ before load")
	}
	if err := LoadParams(&buf, l2.Params()); err != nil {
		t.Fatal(err)
	}
	if !l2.Weight.W.Equal(l1.Weight.W) || !l2.Bias.W.Equal(l1.Bias.W) {
		t.Fatal("roundtrip mismatch")
	}
	// Shape mismatch must error.
	var buf2 bytes.Buffer
	if err := SaveParams(&buf2, l1.Params()); err != nil {
		t.Fatal(err)
	}
	l3 := NewLinear(4, 3, rng)
	if err := LoadParams(&buf2, l3.Params()); err == nil {
		t.Fatal("expected shape mismatch error")
	}
}
