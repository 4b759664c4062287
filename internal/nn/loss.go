package nn

import (
	"math"

	"duet/internal/tensor"
)

// Blocks describes a partition of a logit vector into contiguous per-column
// blocks, one block per table column holding that column's distinct-value
// logits.
type Blocks struct {
	Off []int // start offset of each block
	Len []int // length of each block
	Tot int   // total width
}

// NewBlocks builds a Blocks layout from per-block lengths.
func NewBlocks(lens []int) Blocks {
	b := Blocks{Off: make([]int, len(lens)), Len: append([]int(nil), lens...)}
	for i, l := range lens {
		b.Off[i] = b.Tot
		b.Tot += l
	}
	return b
}

// N returns the number of blocks.
func (b Blocks) N() int { return len(b.Len) }

// Slice returns block i of the given row-vector.
func (b Blocks) Slice(row []float32, i int) []float32 {
	return row[b.Off[i] : b.Off[i]+b.Len[i]]
}

// expChunk is the length of the stack buffer the softmax loops take their
// exponentials through (tensor.ExpShift), a chunk at a time, before summing
// them in ascending order.
const expChunk = 256

// Softmax writes the softmax of logits into dst (which may alias logits).
// The reduction runs in float64 for stability.
func Softmax(dst, logits []float32) {
	mx := float64(math.Inf(-1))
	for _, v := range logits {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	var sum float64
	var buf [expChunk]float64
	for off := 0; off < len(logits); off += expChunk {
		e := buf[:min(len(logits)-off, expChunk)]
		tensor.ExpShift(e, logits[off:off+len(e)], mx)
		d := dst[off : off+len(e)]
		for i, v := range e {
			d[i] = float32(v)
			sum += v
		}
	}
	inv := 1.0 / sum
	for i := range dst {
		dst[i] = float32(float64(dst[i]) * inv)
	}
}

// IntervalMass writes softmax(logits) into probs and returns the mass of
// codes lo..hi, summed in float64 in ascending order (0 when lo > hi): the
// per-column factor of Algorithm 3. Callers apply their own floor or clamp.
func IntervalMass(probs, logits []float32, lo, hi int32) float64 {
	Softmax(probs, logits)
	var f float64
	for v := lo; v <= hi; v++ {
		f += float64(probs[v])
	}
	return f
}

// LogSumExp returns log Σ exp(logits[i]) computed stably.
func LogSumExp(logits []float32) float64 {
	mx := math.Inf(-1)
	for _, v := range logits {
		if fv := float64(v); fv > mx {
			mx = fv
		}
	}
	if math.IsInf(mx, -1) {
		return mx
	}
	var sum float64
	var buf [expChunk]float64
	for off := 0; off < len(logits); off += expChunk {
		e := buf[:min(len(logits)-off, expChunk)]
		tensor.ExpShift(e, logits[off:off+len(e)], mx)
		for _, v := range e {
			sum += v
		}
	}
	return mx + math.Log(sum)
}

// SoftmaxCE computes the mean (over the batch) of the summed per-block
// cross-entropy  -Σ_i log softmax(logits_block_i)[label_i]  and accumulates
// d(loss)/d(logits) into dLogits. A label < 0 marks a block excluded from the
// loss (wildcard column). The returned loss is in nats per tuple, matching
// the negative log-likelihood objective of Naru and of Duet's L_data.
//
// Rows are independent, so they are split across workers; each (row, block)
// loss term is written to a batch×blocks buffer and the terms are summed
// afterwards in row-then-block order, the order a serial pass adds them in,
// so the loss has the same bits for every worker count. terms, when non-nil,
// is that buffer, grown as needed and kept by the caller so a training loop
// does not allocate it every step.
func SoftmaxCE(w *tensor.Workers, logits *tensor.Matrix, blocks Blocks, labels [][]int32, dLogits *tensor.Matrix, terms *[]float64) float64 {
	if logits.Cols != blocks.Tot {
		panic("nn: SoftmaxCE logits width does not match blocks")
	}
	batch, nb := logits.Rows, blocks.N()
	if terms == nil {
		terms = new([]float64)
	}
	if cap(*terms) < batch*nb {
		*terms = make([]float64, batch*nb)
	}
	term := (*terms)[:batch*nb]
	invB := 1.0 / float64(batch)
	w.ParallelFor(batch, tensor.RowGrain(logits.Cols), func(lo, hi int) {
		var buf [expChunk]float64
		for r := lo; r < hi; r++ {
			row := logits.Row(r)
			var dRow []float32
			if dLogits != nil {
				dRow = dLogits.Row(r)
			}
			for bi, y := range labels[r][:nb] {
				if y < 0 {
					continue
				}
				seg := blocks.Slice(row, bi)
				lse := LogSumExp(seg)
				term[r*nb+bi] = lse - float64(seg[y])
				if dRow == nil {
					continue
				}
				dSeg := blocks.Slice(dRow, bi)
				for off := 0; off < len(seg); off += expChunk {
					p := buf[:min(len(seg)-off, expChunk)]
					tensor.ExpShift(p, seg[off:off+len(p)], lse)
					d := dSeg[off : off+len(p)]
					for j, v := range p {
						d[j] += float32(v * invB)
					}
				}
				dSeg[y] -= float32(invB)
			}
		}
	})
	var total float64
	for r, lab := range labels[:batch] {
		for bi, y := range lab[:nb] {
			if y >= 0 {
				total += term[r*nb+bi]
			}
		}
	}
	return total * invB
}

// MSE computes the mean squared error between pred and target (both treated
// as flat vectors) and, when dPred is non-nil, accumulates the gradient.
func MSE(pred, target *tensor.Matrix, dPred *tensor.Matrix) float64 {
	n := len(pred.Data)
	if n == 0 {
		return 0
	}
	inv := 1.0 / float64(n)
	var total float64
	for i, v := range pred.Data {
		d := float64(v) - float64(target.Data[i])
		total += d * d
		if dPred != nil {
			dPred.Data[i] += float32(2 * d * inv)
		}
	}
	return total * inv
}

// QErrorLossGrad returns the smoothed Q-Error loss  log2(QErr+1)  for a
// single query together with d(loss)/d(est). Both est and act are clamped to
// at least minCard (cardinalities below one tuple are indistinguishable).
// This is Duet's L_query term: because est is produced without sampling it is
// differentiable in the model output, and the log2 mapping compresses the
// huge initial Q-Error range that destabilizes UAE's training (Fig. 3).
func QErrorLossGrad(est, act, minCard float64) (loss, dEst float64) {
	if est < minCard {
		est = minCard
		// Clamp is active: the true gradient is zero below the clamp, but we
		// keep the downhill direction so training can escape est≈0.
	}
	if act < minCard {
		act = minCard
	}
	var q, dq float64
	if est >= act {
		q = est / act
		dq = 1 / act
	} else {
		q = act / est
		dq = -act / (est * est)
	}
	loss = math.Log2(q + 1)
	dEst = dq / ((q + 1) * math.Ln2)
	return loss, dEst
}
