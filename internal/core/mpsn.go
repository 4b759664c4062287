package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// MPSNKind selects the Multiple-Predicate Supporting Network variant
// (Section IV-F of the paper) used to embed a variable-length set of
// predicates on a single column into a fixed-size vector.
type MPSNKind uint8

// MPSN variants.
const (
	MPSNNone MPSNKind = iota // direct encoding, one predicate per column
	MPSNMLP                  // shared MLP per predicate, vector sum (order-irrelevant)
	MPSNRNN                  // LSTM over predicates, FC outputs summed
	MPSNRec                  // recursive net out = MLP(enc || out)
)

// String returns the variant name.
func (k MPSNKind) String() string {
	switch k {
	case MPSNNone:
		return "none"
	case MPSNMLP:
		return "mlp"
	case MPSNRNN:
		return "rnn"
	case MPSNRec:
		return "rec"
	default:
		return fmt.Sprintf("MPSNKind(%d)", uint8(k))
	}
}

// Servable reports why the model cannot sit behind a serving engine that
// keys its cache and deduplication by predicate set (nil when it can): only
// the order-invariant direct encoding and MLP MPSN are sound there.
func (m *Model) Servable() error {
	switch k := m.cfg.MPSN; k {
	case MPSNRNN, MPSNRec:
		return fmt.Errorf("core: the %v MPSN embeds predicate lists order-sensitively and cannot sit behind the predicate-set-keyed cache", k)
	}
	return nil
}

// PredSet holds the encoded predicates of one column for one row; empty
// means the column is unconstrained (its embedding is the zero vector).
type PredSet [][]float32

// MPSN embeds per-row predicate sets of one column into OutDim vectors.
// Forward must be called before Backward; Backward returns the gradient of
// every encoded predicate (same ragged shape as the forward input) so the
// model can route gradients into learned value embeddings.
type MPSN interface {
	Forward(preds []PredSet) *tensor.Matrix
	Backward(dOut *tensor.Matrix) []PredSet
	Params() []*nn.Param
	OutDim() int
}

// NewMPSN constructs the requested variant for one column.
func NewMPSN(kind MPSNKind, encW, hidden, outDim int, rng *rand.Rand) MPSN {
	switch kind {
	case MPSNMLP:
		return newMLPMPSN(encW, hidden, outDim, rng)
	case MPSNRNN:
		return newRNNMPSN(encW, hidden, outDim, rng)
	case MPSNRec:
		return newRecMPSN(encW, hidden, outDim, rng)
	default:
		panic("core: NewMPSN needs a concrete MPSN kind")
	}
}

// ----- MLP & vector sum -----

// mlpMPSN embeds every predicate independently with a shared 2-hidden-layer
// MLP and sums the vectors. It is the paper's recommended variant: cheapest
// and order-irrelevant.
type mlpMPSN struct {
	net    *nn.Sequential
	encW   int
	outDim int

	rows  []int32 // row of each flattened predicate
	batch int
	flat  *tensor.Matrix
}

func newMLPMPSN(encW, hidden, outDim int, rng *rand.Rand) *mlpMPSN {
	return &mlpMPSN{
		net: nn.NewSequential(
			nn.NewLinear(encW, hidden, rng), nn.NewReLU(),
			nn.NewLinear(hidden, hidden, rng), nn.NewReLU(),
			nn.NewLinear(hidden, outDim, rng),
		),
		encW: encW, outDim: outDim,
	}
}

func (m *mlpMPSN) OutDim() int         { return m.outDim }
func (m *mlpMPSN) Params() []*nn.Param { return m.net.Params() }

func (m *mlpMPSN) Forward(preds []PredSet) *tensor.Matrix {
	m.batch = len(preds)
	m.rows = m.rows[:0]
	total := 0
	for _, ps := range preds {
		total += len(ps)
	}
	out := tensor.New(m.batch, m.outDim)
	if total == 0 {
		m.flat = nil
		return out
	}
	flat := tensor.New(total, m.encW)
	k := 0
	for r, ps := range preds {
		for _, enc := range ps {
			copy(flat.Row(k), enc)
			m.rows = append(m.rows, int32(r))
			k++
		}
	}
	m.flat = flat
	h := m.net.Forward(flat)
	for i, r := range m.rows {
		dst := out.Row(int(r))
		src := h.Row(i)
		for j, v := range src {
			dst[j] += v
		}
	}
	return out
}

func (m *mlpMPSN) Backward(dOut *tensor.Matrix) []PredSet {
	dEnc := make([]PredSet, m.batch)
	if m.flat == nil {
		return dEnc
	}
	dH := tensor.New(len(m.rows), m.outDim)
	for i, r := range m.rows {
		copy(dH.Row(i), dOut.Row(int(r)))
	}
	dFlat := m.net.Backward(dH)
	k := 0
	for i := range m.rows {
		r := int(m.rows[i])
		g := make([]float32, m.encW)
		copy(g, dFlat.Row(k))
		dEnc[r] = append(dEnc[r], g)
		k++
	}
	return dEnc
}

// ----- LSTM & FC sum -----

// rnnMPSN runs an LSTM over the predicate sequence and sums a fully
// connected projection of every hidden state. Rows are processed grouped by
// predicate count so each group is one batched LSTM unroll; because the LSTM
// keeps caches for a single unroll only, Backward re-runs the forward pass
// per group before backpropagating through it.
type rnnMPSN struct {
	lstm   *nn.LSTM
	fcW    *nn.Param // H×outDim
	fcB    *nn.Param // 1×outDim
	encW   int
	hidden int
	outDim int

	preds []PredSet // retained forward input
}

func newRNNMPSN(encW, hidden, outDim int, rng *rand.Rand) *rnnMPSN {
	m := &rnnMPSN{
		lstm: nn.NewLSTM(encW, hidden, rng),
		fcW:  nn.NewParam("mpsn.fc.w", hidden, outDim),
		fcB:  nn.NewParam("mpsn.fc.b", 1, outDim),
		encW: encW, hidden: hidden, outDim: outDim,
	}
	tensor.XavierInit(m.fcW.W, hidden, outDim, rng)
	return m
}

func (m *rnnMPSN) OutDim() int         { return m.outDim }
func (m *rnnMPSN) Params() []*nn.Param { return append(m.lstm.Params(), m.fcW, m.fcB) }

// groupByLen buckets row indices by predicate count (>0).
func groupByLen(preds []PredSet) map[int][]int {
	groups := map[int][]int{}
	for r, ps := range preds {
		if len(ps) > 0 {
			groups[len(ps)] = append(groups[len(ps)], r)
		}
	}
	return groups
}

func (m *rnnMPSN) buildSeq(rows []int, length int) []*tensor.Matrix {
	seq := make([]*tensor.Matrix, length)
	for t := 0; t < length; t++ {
		x := tensor.New(len(rows), m.encW)
		for i, r := range rows {
			copy(x.Row(i), m.preds[r][t])
		}
		seq[t] = x
	}
	return seq
}

func (m *rnnMPSN) Forward(preds []PredSet) *tensor.Matrix {
	m.preds = preds
	out := tensor.New(len(preds), m.outDim)
	groups := groupByLen(preds)
	proj := func(h *tensor.Matrix) *tensor.Matrix {
		p := tensor.New(h.Rows, m.outDim)
		tensor.Mul(p, h, m.fcW.W)
		p.AddRowVector(m.fcB.W.Data)
		return p
	}
	for _, length := range slices.Sorted(maps.Keys(groups)) {
		rows := groups[length]
		hs := m.lstm.Forward(m.buildSeq(rows, length))
		for _, h := range hs {
			p := proj(h)
			for i, r := range rows {
				dst := out.Row(r)
				for j, v := range p.Row(i) {
					dst[j] += v
				}
			}
		}
	}
	return out
}

func (m *rnnMPSN) Backward(dOut *tensor.Matrix) []PredSet {
	dEnc := make([]PredSet, len(m.preds))
	groups := groupByLen(m.preds)
	for _, length := range slices.Sorted(maps.Keys(groups)) {
		rows := groups[length]
		seq := m.buildSeq(rows, length)
		hs := m.lstm.Forward(seq) // rebuild caches for this group
		// dOut flows to every step's FC output.
		dOutG := tensor.New(len(rows), m.outDim)
		for i, r := range rows {
			copy(dOutG.Row(i), dOut.Row(r))
		}
		dHs := make([]*tensor.Matrix, length)
		for t, h := range hs {
			tensor.MulATAdd(m.fcW.G, h, dOutG)
			bg := m.fcB.G.Data
			for b := 0; b < dOutG.Rows; b++ {
				for c, v := range dOutG.Row(b) {
					bg[c] += v
				}
			}
			dh := tensor.New(len(rows), m.hidden)
			tensor.MulBT(dh, dOutG, m.fcW.W)
			dHs[t] = dh
		}
		dXs := m.lstm.Backward(dHs)
		for i, r := range rows {
			for t := 0; t < length; t++ {
				g := make([]float32, m.encW)
				copy(g, dXs[t].Row(i))
				dEnc[r] = append(dEnc[r], g)
			}
		}
	}
	return dEnc
}

// ----- Recursive network -----

// recMPSN computes out_t = MLP(enc_t || out_{t-1}) with out_0 = 0 and uses
// the final out as the embedding. The two-layer MLP is implemented with
// explicit per-step caches so backprop through the recursion is exact.
type recMPSN struct {
	w1, b1 *nn.Param // (encW+outDim)×hidden
	w2, b2 *nn.Param // hidden×outDim
	encW   int
	hidden int
	outDim int

	preds  []PredSet
	caches map[int]*recCache // per group length
}

type recCache struct {
	rows []int
	ins  []*tensor.Matrix // per step: batch×(encW+outDim)
	hs   []*tensor.Matrix // per step: post-ReLU hidden
	outs []*tensor.Matrix // per step: batch×outDim
}

func newRecMPSN(encW, hidden, outDim int, rng *rand.Rand) *recMPSN {
	m := &recMPSN{
		w1:   nn.NewParam("mpsn.rec.w1", encW+outDim, hidden),
		b1:   nn.NewParam("mpsn.rec.b1", 1, hidden),
		w2:   nn.NewParam("mpsn.rec.w2", hidden, outDim),
		b2:   nn.NewParam("mpsn.rec.b2", 1, outDim),
		encW: encW, hidden: hidden, outDim: outDim,
	}
	tensor.XavierInit(m.w1.W, encW+outDim, hidden, rng)
	tensor.XavierInit(m.w2.W, hidden, outDim, rng)
	return m
}

func (m *recMPSN) OutDim() int         { return m.outDim }
func (m *recMPSN) Params() []*nn.Param { return []*nn.Param{m.w1, m.b1, m.w2, m.b2} }

func (m *recMPSN) Forward(preds []PredSet) *tensor.Matrix {
	m.preds = preds
	m.caches = map[int]*recCache{}
	out := tensor.New(len(preds), m.outDim)
	groups := groupByLen(preds)
	for _, length := range slices.Sorted(maps.Keys(groups)) {
		rows := groups[length]
		cache := &recCache{rows: rows}
		prev := tensor.New(len(rows), m.outDim) // out_0 = 0
		for t := 0; t < length; t++ {
			in := tensor.New(len(rows), m.encW+m.outDim)
			for i, r := range rows {
				copy(in.Row(i)[:m.encW], preds[r][t])
				copy(in.Row(i)[m.encW:], prev.Row(i))
			}
			h := tensor.New(len(rows), m.hidden)
			tensor.Mul(h, in, m.w1.W)
			h.AddRowVector(m.b1.W.Data)
			for j, v := range h.Data {
				if v < 0 {
					h.Data[j] = 0
				}
			}
			o := tensor.New(len(rows), m.outDim)
			tensor.Mul(o, h, m.w2.W)
			o.AddRowVector(m.b2.W.Data)
			cache.ins = append(cache.ins, in)
			cache.hs = append(cache.hs, h)
			cache.outs = append(cache.outs, o)
			prev = o
		}
		m.caches[length] = cache
		for i, r := range rows {
			copy(out.Row(r), prev.Row(i))
		}
	}
	return out
}

func (m *recMPSN) Backward(dOut *tensor.Matrix) []PredSet {
	dEnc := make([]PredSet, len(m.preds))
	for r := range m.preds {
		if n := len(m.preds[r]); n > 0 {
			dEnc[r] = make(PredSet, n)
		}
	}
	for _, length := range slices.Sorted(maps.Keys(groupByLen(m.preds))) {
		cache := m.caches[length]
		rows := cache.rows
		dO := tensor.New(len(rows), m.outDim)
		for i, r := range rows {
			copy(dO.Row(i), dOut.Row(r))
		}
		for t := length - 1; t >= 0; t-- {
			h := cache.hs[t]
			in := cache.ins[t]
			// Through the output projection.
			tensor.MulATAdd(m.w2.G, h, dO)
			for b := 0; b < dO.Rows; b++ {
				for c, v := range dO.Row(b) {
					m.b2.G.Data[c] += v
				}
			}
			dH := tensor.New(len(rows), m.hidden)
			tensor.MulBT(dH, dO, m.w2.W)
			for j := range dH.Data {
				if h.Data[j] <= 0 {
					dH.Data[j] = 0
				}
			}
			tensor.MulATAdd(m.w1.G, in, dH)
			for b := 0; b < dH.Rows; b++ {
				for c, v := range dH.Row(b) {
					m.b1.G.Data[c] += v
				}
			}
			dIn := tensor.New(len(rows), m.encW+m.outDim)
			tensor.MulBT(dIn, dH, m.w1.W)
			for i, r := range rows {
				g := make([]float32, m.encW)
				copy(g, dIn.Row(i)[:m.encW])
				dEnc[r][t] = g
			}
			// Gradient w.r.t. out_{t-1} feeds the previous step.
			next := tensor.New(len(rows), m.outDim)
			for i := 0; i < len(rows); i++ {
				copy(next.Row(i), dIn.Row(i)[m.encW:])
			}
			dO = next
		}
	}
	return dEnc
}
