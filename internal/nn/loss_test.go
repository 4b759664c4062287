package nn

import (
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

// TestSoftmaxChunksMatchScalarLoop holds Softmax (in place too), which takes
// its exponentials a stack chunk at a time, to the one-element-at-a-time
// math.Exp loop it replaced, bit for bit, at widths on both sides of a chunk
// boundary.
func TestSoftmaxChunksMatchScalarLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 3, 4, expChunk - 1, expChunk, expChunk + 1, 600, 1243} {
		logits := make([]float32, n)
		for i := range logits {
			logits[i] = float32(rng.NormFloat64() * 8)
		}
		mx := math.Inf(-1)
		for _, v := range logits {
			mx = math.Max(mx, float64(v))
		}
		want := make([]float32, n)
		var sum float64
		for i, v := range logits {
			e := math.Exp(float64(v) - mx)
			want[i] = float32(e)
			sum += e
		}
		for i := range want {
			want[i] = float32(float64(want[i]) * (1.0 / sum))
		}
		got := make([]float32, n)
		Softmax(got, logits)
		inPlace := append([]float32(nil), logits...)
		Softmax(inPlace, inPlace)
		for i := range want {
			if math.Float32bits(got[i]) != math.Float32bits(want[i]) || math.Float32bits(inPlace[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Softmax[%d] = %v (in place %v), scalar loop %v", n, i, got[i], inPlace[i], want[i])
			}
		}
	}
}

func TestSoftmaxCEKnownValue(t *testing.T) {
	blocks := NewBlocks([]int{2})
	logits := tensor.FromSlice(1, 2, []float32{0, 0})
	loss := SoftmaxCE(tensor.Default(), logits, blocks, [][]int32{{0}}, nil, nil)
	if math.Abs(loss-math.Log(2)) > 1e-6 {
		t.Fatalf("uniform 2-way CE should be ln2, got %v", loss)
	}
}

func TestSoftmaxCESkipsWildcardLabels(t *testing.T) {
	blocks := NewBlocks([]int{2, 3})
	logits := tensor.New(1, 5)
	full := SoftmaxCE(tensor.Default(), logits, blocks, [][]int32{{0, 0}}, nil, nil)
	skip := SoftmaxCE(tensor.Default(), logits, blocks, [][]int32{{0, -1}}, nil, nil)
	if skip >= full {
		t.Fatalf("wildcard block should reduce loss: full=%v skip=%v", full, skip)
	}
	d := tensor.New(1, 5)
	SoftmaxCE(tensor.Default(), logits, blocks, [][]int32{{0, -1}}, d, nil)
	for i := 2; i < 5; i++ {
		if d.Data[i] != 0 {
			t.Fatalf("gradient leaked into wildcard block: %v", d.Data)
		}
	}
}

// softmaxCESerial is the reference SoftmaxCE must match bit for bit: the
// per-block loop it replaced, on one goroutine, with every exponential a
// scalar math.Exp and the loss summed as it goes.
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
			lse := logSumExp(seg)
			total += lse - float64(seg[y])
			if dLogits == nil {
				continue
			}
			dSeg := blocks.Slice(dLogits.Row(r), bi)
			for j, v := range seg {
				dSeg[j] += float32(math.Exp(float64(v)-lse) * invB)
			}
			dSeg[y] -= float32(invB)
		}
	}
	return total * invB
}

// logSumExp is log Σ exp(seg[i]) as the per-block loop took it: a float64
// max by >, −Inf without a sum when the max is −Inf, else the max plus the
// log of an ascending sum.
func logSumExp(seg []float32) float64 {
	mx := math.Inf(-1)
	for _, v := range seg {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var sum float64
	for _, v := range seg {
		sum += math.Exp(float64(v) - mx)
	}
	return mx + math.Log(sum)
}

// TestSoftmaxCEParallelMatchesSerial: splitting the batch across workers
// changes neither the loss (a float64 sum, so its order matters) nor any
// gradient bit, with wildcard labels, ragged block widths, a gradient buffer
// that already holds something, and a batch tall enough to fork.
func TestSoftmaxCEParallelMatchesSerial(t *testing.T) {
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
		w := tensor.NewWorkers(workers)
		gotD := prior.Clone()
		got := SoftmaxCE(w, logits, blocks, labels, gotD, &terms) // terms reused: stale entries must not leak in
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%d workers: loss %v (%#x), serial %v (%#x)", workers, got, math.Float64bits(got), want, math.Float64bits(want))
		}
		for i, v := range wantD.Data {
			if math.Float32bits(gotD.Data[i]) != math.Float32bits(v) {
				t.Fatalf("%d workers: dLogits[%d] = %v, serial %v", workers, i, gotD.Data[i], v)
			}
		}
		w.Close()
	}
}

// FuzzSoftmaxCE holds SoftmaxCE on the active tier to softmaxCESerial,
// loss bits and every gradient bit, at 1 and 2 workers, on random block
// layouts of 1 to 1,300 logits per block, labels of −1, and logits that
// hold NaN, ±Inf and ±0 or lie 708 and more apart. A NaN matches any NaN:
// which of two NaN operands an add returns depends on the operand order
// the compiler picks for a Go +=, in the reference as much as anywhere.
func FuzzSoftmaxCE(f *testing.F) {
	f.Add(int64(1), uint8(14), uint16(100), uint8(0), uint8(3))
	f.Add(int64(2), uint8(11), uint16(1300), uint8(1), uint8(2))
	f.Add(int64(3), uint8(5), uint16(9), uint8(2), uint8(40))
	f.Add(int64(4), uint8(1), uint16(1), uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, seed int64, nb uint8, maxLen uint16, mode, rows uint8) {
		rng := rand.New(rand.NewSource(seed))
		lens := make([]int, 1+int(nb)%16)
		for i := range lens {
			lens[i] = 1 + rng.Intn(1+int(maxLen)%1300)
		}
		blocks := NewBlocks(lens)
		batch := 1 + int(rows)%48
		logits := tensor.New(batch, blocks.Tot)
		special := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1))}
		for i := range logits.Data {
			switch v := float32(rng.NormFloat64() * 4); {
			case mode%4 == 1 && rng.Intn(8) == 0:
				logits.Data[i] = special[rng.Intn(len(special))]
			case mode%4 == 2 && rng.Intn(4) == 0: // 708 and more from the rest
				logits.Data[i] = v + float32(708+rng.Intn(400))*float32(1-2*rng.Intn(2))
			case mode%4 == 3 && rng.Intn(3) == 0: // a zero max, or all -Inf
				logits.Data[i] = special[1+rng.Intn(4)]
			default:
				logits.Data[i] = v
			}
		}
		labels := make([][]int32, batch)
		for r := range labels {
			labels[r] = make([]int32, len(lens))
			for bi, n := range lens {
				labels[r][bi] = int32(rng.Intn(n+1)) - 1
			}
		}
		prior := tensor.New(batch, blocks.Tot)
		tensor.RandUniform(prior, 1, rng)
		wantD := prior.Clone()
		want := softmaxCESerial(logits, blocks, labels, wantD)
		for _, workers := range []int{1, 2} {
			w := tensor.NewWorkers(workers)
			gotD := prior.Clone()
			got := SoftmaxCE(w, logits, blocks, labels, gotD, nil)
			w.Close()
			if !sameBits(got, want) {
				t.Fatalf("%d workers, blocks %v: loss %v (%#x), per-block loop %v (%#x)", workers, lens, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			for i, v := range wantD.Data {
				if !sameBits(float64(gotD.Data[i]), float64(v)) {
					t.Fatalf("%d workers, blocks %v: dLogits[%d] = %v (%#x), per-block loop %v (%#x)", workers, lens, i, gotD.Data[i], math.Float32bits(gotD.Data[i]), v, math.Float32bits(v))
				}
			}
		}
	})
}

// sameBits reports whether a and b have the same bits or are both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || a != a && b != b
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
		opt.Step(tensor.Default(), []*Param{p})
	}
	for j := range target {
		if math.Abs(float64(p.W.Data[j]-target[j])) > 0.05 {
			t.Fatalf("Adam failed to converge: %v", p.W.Data)
		}
	}
}

// FuzzAdamStep holds Adam.Step on the active tier to the generic loop it
// runs, every weight and moment bit (a NaN matches any NaN), over several
// steps of a parameter whose length covers the kernels' groups and tails,
// with gradients that hold NaN, ±Inf, ±0 and values far apart.
func FuzzAdamStep(f *testing.F) {
	f.Add(int64(1), uint16(127), uint8(3), false)
	f.Add(int64(2), uint16(8), uint8(1), true)
	f.Add(int64(3), uint16(1), uint8(2), false)
	f.Fuzz(func(t *testing.T, seed int64, n uint16, steps uint8, special bool) {
		rng := rand.New(rand.NewSource(seed))
		p := NewParam("w", 1, 1+int(n)%4096)
		tensor.RandUniform(p.W, 1, rng)
		want := p.W.Clone()
		m, v := tensor.New(1, len(want.Data)), tensor.New(1, len(want.Data))
		opt := NewAdam(1e-3)
		specials := []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 0, float32(math.Copysign(0, -1)), 1e30, 1e-30}
		for s := 1; s <= 1+int(steps)%5; s++ {
			for i := range p.G.Data {
				p.G.Data[i] = float32(rng.NormFloat64() * math.Pow(10, float64(rng.Intn(9)-4)))
				if special && rng.Intn(6) == 0 {
					p.G.Data[i] = specials[rng.Intn(len(specials))]
				}
			}
			opt.Step(tensor.Default(), []*Param{p})
			// Adam.Step's update on one thread, as the loop wrote it: each
			// float32 product and sum rounded on its own, the step in float64.
			lr := opt.LR * math.Sqrt(1-math.Pow(opt.Beta2, float64(s))) / (1 - math.Pow(opt.Beta1, float64(s)))
			b1, b2 := float32(opt.Beta1), float32(opt.Beta2)
			for i, g := range p.G.Data {
				m.Data[i] = float32(b1*m.Data[i]) + float32((1-b1)*g)
				v.Data[i] = float32(b2*v.Data[i]) + float32(float32((1-b2)*g)*g)
				want.Data[i] -= float32(lr * float64(m.Data[i]) / (math.Sqrt(float64(v.Data[i])) + opt.Eps))
			}
			for i := range want.Data {
				for _, pair := range [][2]float32{{p.W.Data[i], want.Data[i]}, {opt.m[p].Data[i], m.Data[i]}, {opt.v[p].Data[i], v.Data[i]}} {
					if !sameBits(float64(pair[0]), float64(pair[1])) {
						t.Fatalf("step %d, %d parameters, [%d]: weight/moments %v, %v, %v; loop %v, %v, %v", s, len(want.Data), i,
							p.W.Data[i], opt.m[p].Data[i], opt.v[p].Data[i], want.Data[i], m.Data[i], v.Data[i])
					}
				}
			}
		}
	})
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
