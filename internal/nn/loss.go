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
//
// Every bit is that of the per-block loop
//
//	mx := -Inf; for each v in seg: if float64(v) > mx { mx = float64(v) }
//	lse := mx + log(Σ exp(float64(v) - mx))  (−Inf, unsummed, if mx is −Inf)
//	term = lse - float64(seg[y])
//	for each j: d[j] += float32(exp(float64(seg[j]) - lse) * invB)
//	d[y] -= float32(invB)
//
// with each sum one ascending float64 chain, but a row runs as one fused
// pass (softmaxCERun) over each run of consecutive labelled blocks.
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
		// One row's exponentials and shifts, and its blocks' sums: scratch
		// of the logit width per chunk, never of the batch.
		buf := make([]float64, 2*blocks.Tot+nb)
		e, c, sums := buf[:blocks.Tot], buf[blocks.Tot:2*blocks.Tot], buf[2*blocks.Tot:]
		for r := lo; r < hi; r++ {
			var dRow []float32
			if dLogits != nil {
				dRow = dLogits.Row(r)
			}
			lab := labels[r][:nb]
			for b0 := 0; b0 < nb; {
				if lab[b0] < 0 {
					b0++
					continue
				}
				b1 := b0 + 1
				for b1 < nb && lab[b1] >= 0 {
					b1++
				}
				softmaxCERun(logits.Row(r), dRow, blocks, b0, b1, lab, term[r*nb:(r+1)*nb], e, c, sums, invB)
				b0 = b1
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

// softmaxCERun is SoftmaxCE on blocks b0..b1-1 of one row, all labelled:
// a vector max per block, one exponential call across the blocks with each
// lane shifted by its block's max, the blocks' sums (blockSums), then for
// the gradient a second call shifted by each block's log-sum-exp and one
// vector accumulate. e and c are scratch of the logits' width, and sums of
// one entry per block.
//
// tensor.Max returns the scalar loop's maximum, except that a maximum of
// zero may come back as −0 for +0 or the other way round. That sign cannot
// reach a result bit: x − (±0) differs only for x = −0, giving ±0, and
// exp(±0) = 1; the max's lane adds exp(0) = 1 to the sum, so sum ≥ 1 (or
// NaN), log(sum) ≥ +0, and ±0 + log(sum) is log(sum). A block holding a NaN
// sums to NaN through the same operations either way (Max skips a NaN as
// the loop's > does), and a max of ±Inf is not a zero, so it is the loop's
// value exactly; none of these needs a path of its own. A max of −Inf (the
// block is all −Inf or NaN) gives lse = −Inf, as the loop returned before
// summing.
func softmaxCERun(row, dRow []float32, blocks Blocks, b0, b1 int, lab []int32, term, e, c, sums []float64, invB float64) {
	base := blocks.Off[b0]
	end := blocks.Off[b1-1] + blocks.Len[b1-1]
	x := row[base:end]
	e, c = e[:len(x)], c[:len(x)]
	for bi := b0; bi < b1; bi++ {
		o := blocks.Off[bi] - base
		fill(c[o:o+blocks.Len[bi]], float64(tensor.Max(blocks.Slice(row, bi))))
	}
	tensor.ExpShiftLanes(e, x, c)
	blockSums(sums, e, blocks, b0, b1)
	for bi := b0; bi < b1; bi++ {
		o := blocks.Off[bi] - base
		cb := c[o : o+blocks.Len[bi]]
		mx := cb[0]
		lse := mx
		if !math.IsInf(mx, -1) {
			lse = mx + math.Log(sums[bi])
		}
		term[bi] = lse - float64(row[blocks.Off[bi]+int(lab[bi])])
		fill(cb, lse)
	}
	if dRow == nil {
		return
	}
	tensor.ExpShiftLanes(e, x, c)
	tensor.AddScaled(dRow[base:end], e, invB)
	for bi := b0; bi < b1; bi++ {
		dRow[blocks.Off[bi]+int(lab[bi])] -= float32(invB)
	}
}

// fill sets every element of dst to v: sixteen stores, then copies that
// double the filled prefix (copy moves a wide block at a time).
func fill(dst []float64, v float64) {
	n := min(len(dst), 16)
	for i := range dst[:n] {
		dst[i] = v
	}
	for ; n < len(dst); n *= 2 {
		copy(dst[n:], dst[:n])
	}
}

// blockSums sets sums[bi], for bi in b0..b1-1, to the float64 sum of block
// bi's entries of e (the row's entries from block b0's offset on), each one
// ascending chain from +0. Four chains run interleaved, each taking the next
// block when its own ends, so the adds of four blocks overlap instead of
// each waiting on the one before; the last chains finish one at a time.
func blockSums(sums, e []float64, blocks Blocks, b0, b1 int) {
	base, next := blocks.Off[b0], b0
	take := func() (int, []float64) {
		bi := next
		next++
		o := blocks.Off[bi] - base
		return bi, e[o : o+blocks.Len[bi]]
	}
	finish := func(bi int, s []float64, a float64) {
		for _, v := range s {
			a += v
		}
		sums[bi] = a
	}
	if b1-b0 >= 4 {
		i0, s0 := take()
		i1, s1 := take()
		i2, s2 := take()
		i3, s3 := take()
		var a0, a1, a2, a3 float64
		for {
			n := min(len(s0), len(s1), len(s2), len(s3))
			for j := range n {
				a0 += s0[j]
				a1 += s1[j]
				a2 += s2[j]
				a3 += s3[j]
			}
			s0, s1, s2, s3 = s0[n:], s1[n:], s2[n:], s3[n:]
			if next == b1 {
				break
			}
			// A chain at its block's end hands its sum over and starts the
			// next block; with none left, the loop above ends the others.
			switch {
			case len(s0) == 0:
				sums[i0], a0 = a0, 0
				i0, s0 = take()
			case len(s1) == 0:
				sums[i1], a1 = a1, 0
				i1, s1 = take()
			case len(s2) == 0:
				sums[i2], a2 = a2, 0
				i2, s2 = take()
			default:
				sums[i3], a3 = a3, 0
				i3, s3 = take()
			}
		}
		finish(i0, s0, a0)
		finish(i1, s1, a1)
		finish(i2, s2, a2)
		finish(i3, s3, a3)
	}
	for next < b1 {
		bi, s := take()
		finish(bi, s, 0)
	}
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
