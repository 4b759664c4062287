package nn

import (
	"fmt"
	"math/rand"
	"testing"
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
