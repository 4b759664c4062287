package nn

import (
	"fmt"
	"math/rand"
	"testing"

	"duet/internal/tensor"
)

// BenchmarkSoftmax times one Softmax over a logit block at the DMV model's
// two widest block widths, the masked product's per-column cost
// (IntervalMass normalizes a whole block). Logits are a few units apart, as
// a trained model's are.
func BenchmarkSoftmax(b *testing.B) {
	for _, n := range []int{1243, 367} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			logits := make([]float32, n)
			for i := range logits {
				logits[i] = float32(rng.NormFloat64() * 3)
			}
			dst := make([]float32, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				Softmax(dst, logits)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// BenchmarkSoftmaxCE times one training step's L_data (loss and logit
// gradient) over 1,024 rows, the paper's 256 tuples × µ 4, at the census
// model's 14 blocks (444 logits) and the DMV model's 11 blocks (2,079
// logits), on 1 and 2 workers. Every block is labelled, as in data training.
func BenchmarkSoftmaxCE(b *testing.B) {
	shapes := []struct {
		name string
		lens []int
	}{
		{"census", []int{74, 9, 100, 16, 16, 7, 15, 6, 5, 2, 42, 54, 96, 2}},
		{"dmv", []int{4, 75, 66, 63, 35, 9, 367, 213, 2, 2, 1243}},
	}
	for _, sh := range shapes {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/w%d", sh.name, workers), func(b *testing.B) {
				const batch = 1024
				rng := rand.New(rand.NewSource(1))
				blocks := NewBlocks(sh.lens)
				logits := tensor.New(batch, blocks.Tot)
				tensor.RandUniform(logits, 3, rng)
				labels := make([][]int32, batch)
				for r := range labels {
					labels[r] = make([]int32, blocks.N())
					for bi, n := range sh.lens {
						labels[r][bi] = int32(rng.Intn(n))
					}
				}
				d := tensor.New(batch, blocks.Tot)
				var terms []float64
				w := tensor.NewWorkers(workers)
				defer w.Close()
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					SoftmaxCE(w, logits, blocks, labels, d, &terms)
				}
			})
		}
	}
}

// BenchmarkAdamStep times one Adam update of a census-sized ResMADE's
// weights (~118K parameters in four layers) on one worker.
func BenchmarkAdamStep(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	var params []*Param
	for _, s := range [][2]int{{195, 128}, {128, 128}, {128, 128}, {128, 444}} {
		p := NewParam("w", s[0], s[1])
		tensor.RandUniform(p.W, 0.1, rng)
		tensor.RandUniform(p.G, 0.01, rng)
		params = append(params, p)
	}
	opt := NewAdam(1e-3)
	w := tensor.NewWorkers(1)
	defer w.Close()
	opt.Step(w, params) // allocate the moments
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt.Step(w, params)
	}
}
