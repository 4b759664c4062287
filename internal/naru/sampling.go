package naru

import (
	"time"

	"duet/internal/nn"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// EstimateCard estimates the query's cardinality by progressive sampling.
func (m *Model) EstimateCard(q workload.Query) float64 {
	card, _, _, _ := m.EstimateDetail(q)
	return card
}

// EstimateDetail runs progressive sampling and reports the per-phase time
// breakdown (encoding, network inference, sampling bookkeeping) used by the
// paper's Figure 6.
//
// The procedure (Yang et al. 2020): process constrained columns in model
// order. Maintain s parallel samples, each an equality-encoded partial tuple
// with all columns wildcarded initially. At column i, one forward pass over
// the s samples yields P(C_i | sampled prefix); each sample multiplies its
// weight by the probability mass inside the predicate interval and then
// draws a concrete value from the renormalized in-range distribution, which
// is written into the input for the next step. Unconstrained columns are
// wildcard-skipped. The estimate is the mean sample weight times |T| —
// unbiased, but requiring n forward passes of batch s and fresh randomness
// per call.
func (m *Model) EstimateDetail(q workload.Query) (card float64, encodeNS, inferNS, sampleNS int64) {
	ivs := q.ColumnIntervals(m.table)
	cols := q.Columns()
	total := float64(m.table.NumRows())
	if len(cols) == 0 {
		return total, 0, 0, 0
	}
	for _, c := range cols {
		if ivs[c].Empty() {
			return 0, 0, 0, 0
		}
	}
	s := m.cfg.Samples
	t0 := time.Now()
	if m.x == nil || m.x.Rows != s {
		m.x = tensor.New(s, m.net.In.Tot)
	}
	x := m.x
	// All-wildcard start state.
	for b := 0; b < s; b++ {
		row := x.Row(b)
		for i, cd := range m.codecs {
			cd.encode(m.net.In.Slice(row, i), -1)
		}
	}
	weights := make([]float64, s)
	for i := range weights {
		weights[i] = 1
	}
	encodeNS = time.Since(t0).Nanoseconds()

	for _, c := range cols {
		t1 := time.Now()
		logits := m.net.Forward(x)
		inferNS += time.Since(t1).Nanoseconds()

		t2 := time.Now()
		iv := ivs[c]
		cd := m.codecs[c]
		for b := 0; b < s; b++ {
			if weights[b] == 0 {
				continue
			}
			seg := m.net.Out.Slice(logits.Row(b), c)
			probs := m.probs[:len(seg)]
			mass := nn.IntervalMass(probs, seg, iv.Lo, iv.Hi)
			weights[b] *= mass
			if weights[b] == 0 {
				continue
			}
			// Draw the next value from the renormalized in-range mass.
			u := m.rng.Float64() * mass
			var acc float64
			chosen := iv.Hi
			for v := iv.Lo; v <= iv.Hi; v++ {
				acc += float64(probs[v])
				if acc >= u {
					chosen = v
					break
				}
			}
			cd.encode(m.net.In.Slice(x.Row(b), c), chosen)
		}
		sampleNS += time.Since(t2).Nanoseconds()
	}
	var mean float64
	for _, w := range weights {
		mean += w
	}
	mean /= float64(s)
	return mean * total, encodeNS, inferNS, sampleNS
}
