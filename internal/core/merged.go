package core

import (
	"fmt"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// mergedMPSN is the paper's "Parallel Acceleration for MLP MPSN": the MLP
// MPSNs of all columns are fused into one network whose weight matrices are
// block-diagonal, so embedding the predicates of every column takes one
// fused forward pass per predicate round instead of one network call per
// column. It is an inference-time structure built from the trained
// per-column MPSNs by Model.Merge; results match the per-column path up to
// floating-point summation order.
type mergedMPSN struct {
	inOff  []int // per-column offsets into the fused input
	inTot  int
	hidden int
	outDim int
	ncols  int

	// Fused layers stored output-major (rows = output units) so the
	// single-row inference path is one MulVec per layer.
	w1, w2, w3 *tensor.Matrix
	b1, b2, b3 []float32
}

// mergedScratch is one pass's working memory for the fused encoder.
type mergedScratch struct{ in, h1, h2, out tensor.Matrix }

// Merge fuses the model's per-column MLP MPSNs into a block-diagonal network
// and publishes a snapshot that encodes through it. Every snapshot compiled
// until Unmerge fuses the weights it was compiled from. It returns an error
// for models not using the MLP MPSN.
func (m *Model) Merge() error {
	if m.cfg.MPSN != MPSNMLP {
		return fmt.Errorf("core: Merge requires the MLP MPSN, model uses %v", m.cfg.MPSN)
	}
	m.fused.Store(true)
	m.publish()
	return nil
}

// Unmerge publishes a snapshot without the fused encoder; estimates fall
// back to the per-column MPSNs.
func (m *Model) Unmerge() {
	if m.fused.Swap(false) {
		m.publish()
	}
}

// fuse copies the per-column MLP MPSNs' current weights into one fused
// network.
func (m *Model) fuse() *mergedMPSN {
	n := m.table.NumCols()
	H, O := m.cfg.MPSNHidden, m.cfg.MPSNOut
	g := &mergedMPSN{hidden: H, outDim: O, ncols: n}
	g.inOff = make([]int, n)
	for i := range m.mpsns {
		g.inOff[i] = g.inTot
		g.inTot += predEncWidth(m.codecs[i])
	}
	g.w1 = tensor.New(n*H, g.inTot)
	g.w2 = tensor.New(n*H, n*H)
	g.w3 = tensor.New(n*O, n*H)
	g.b1 = make([]float32, n*H)
	g.b2 = make([]float32, n*H)
	g.b3 = make([]float32, n*O)
	for i, mp := range m.mpsns {
		layers := mp.(*mlpMPSN).net.Layers
		l1 := layers[0].(*nn.Linear)
		l2 := layers[2].(*nn.Linear)
		l3 := layers[4].(*nn.Linear)
		// nn.Linear stores W as in×out; the fused matrices are out-major.
		placeTransposed(g.w1, l1.Weight.W, i*H, g.inOff[i])
		placeTransposed(g.w2, l2.Weight.W, i*H, i*H)
		placeTransposed(g.w3, l3.Weight.W, i*O, i*H)
		copy(g.b1[i*H:(i+1)*H], l1.Bias.W.Data)
		copy(g.b2[i*H:(i+1)*H], l2.Bias.W.Data)
		copy(g.b3[i*O:(i+1)*O], l3.Bias.W.Data)
	}
	return g
}

// placeTransposed writes srcᵀ (src is in×out) into dst at (rowOff, colOff).
func placeTransposed(dst, src *tensor.Matrix, rowOff, colOff int) {
	for r := 0; r < src.Rows; r++ {
		for c := 0; c < src.Cols; c++ {
			dst.Set(rowOff+c, colOff+r, src.At(r, c))
		}
	}
}

// encode builds the MADE input row for one spec through the fused network,
// working in s: one fused forward pass per predicate round, with output
// blocks masked to the columns that actually have a predicate in that round
// (columns without one would otherwise contribute their bias response).
func (g *mergedMPSN) encode(e *encoder, s *mergedScratch, spec Spec, xRow []float32) {
	clear(xRow)
	rounds := 0
	for _, ps := range spec {
		if len(ps) > rounds {
			rounds = len(ps)
		}
	}
	O, n := g.outDim, g.ncols
	in, out := s.in.Resize(1, g.inTot).Data, s.out.Resize(1, n*O).Data
	h1, h2 := s.h1.Resize(1, n*g.hidden).Data, s.h2.Resize(1, n*g.hidden).Data
	for j := 0; j < rounds; j++ {
		clear(in)
		for i, ps := range spec {
			if len(ps) > j {
				encW := predEncWidth(e.codecs[i])
				encodePred(in[g.inOff[i]:g.inOff[i]+encW], e.codecs[i], ps[j].Op, ps[j].Code)
			}
		}
		tensor.MulVec(h1, g.w1, in)
		addBiasRelu(h1, g.b1)
		tensor.MulVec(h2, g.w2, h1)
		addBiasRelu(h2, g.b2)
		tensor.MulVec(out, g.w3, h2)
		for i := range out {
			out[i] += g.b3[i]
		}
		for i := 0; i < n; i++ {
			if len(spec[i]) <= j {
				continue
			}
			dst := e.in.Slice(xRow, i)
			for k := 0; k < O; k++ {
				dst[k] += out[i*O+k]
			}
		}
	}
}

func addBiasRelu(v, b []float32) {
	for i := range v {
		v[i] += b[i]
		if v[i] < 0 {
			v[i] = 0
		}
	}
}
