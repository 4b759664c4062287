package made

import (
	"fmt"
	"math/bits"
	"testing"

	"duet/internal/relation"
	"duet/internal/tensor"
)

// benchNet builds an untrained network shaped like the model core builds
// for t: per column one value encoding (one-hot up to 32 values, binary up
// to 512, a 32-wide embedding above) plus five operator slots and a
// wildcard slot in, the column's NDV out.
func benchNet(t *relation.Table, hidden []int, residual bool) *MADE {
	in := make([]int, t.NumCols())
	for i, ndv := range t.NDVs() {
		switch {
		case ndv <= 32:
			in[i] = ndv
		case ndv <= 512:
			in[i] = bits.Len(uint(ndv - 1))
		default:
			in[i] = 32
		}
		in[i] += 6
	}
	return New(Config{InBlocks: in, OutBlocks: t.NDVs(), Hidden: hidden, Residual: residual, Seed: 1})
}

// BenchmarkPlanForward times Plan.Forward on untrained nets shaped like the
// two benchmark models (the DMV table's plain MADE 512-256-512-128-1024 and
// the census table's ResMADE 128x2), on batches where about half of every
// row is zero and each row needs about half of the output blocks. b1 runs
// the 64 rows one call each, b64 as one call; both report µs per row, so
// the b64/b1 ratio at one worker is the weight reuse a batch buys. The DMV
// net also runs as an int8 plan (dmv-i8).
func BenchmarkPlanForward(b *testing.B) {
	dmv := benchNet(relation.SynDMV(20000, 1), []int{512, 256, 512, 128, 1024}, false)
	nets := []struct {
		name  string
		net   *MADE
		quant bool
	}{
		{"dmv", dmv, false},
		{"dmv-i8", dmv, true},
		{"census", benchNet(relation.SynCensus(20000, 1), []int{128, 128}, true), false},
	}
	for _, n := range nets {
		p := NewPlan(n.net, PlanConfig{Quantize: n.quant})
		x, needed := planBatch(n.net, 64, 1)
		for _, batch := range []int{1, 64} {
			calls := make([]tensor.Matrix, x.Rows/batch)
			for c := range calls {
				calls[c] = tensor.Matrix{Rows: batch, Cols: x.Cols, Data: x.Data[c*batch*x.Cols : (c+1)*batch*x.Cols]}
			}
			for _, workers := range []int{1, 2} {
				b.Run(fmt.Sprintf("%s/b%d/w%d", n.name, batch, workers), func(b *testing.B) {
					w := tensor.NewWorkers(workers)
					defer w.Close()
					var s Scratch
					for i := 0; i < b.N; i++ {
						c := i % len(calls)
						p.Run(w, &s, &calls[c], needed[c*batch:(c+1)*batch])
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/1e3/float64(b.N*batch), "us/row")
				})
			}
		}
	}
}
