// Package uae implements the UAE baseline (Wu & Cong, SIGMOD 2021): Naru's
// autoregressive model trained hybridly, using a differentiable relaxation
// of progressive sampling so the query Q-Error can be backpropagated.
//
// The original uses the Gumbel-Softmax trick; this reproduction uses the
// straight-through equivalent (hard in-range sample on the forward path,
// gradients routed through each step's masked probability mass), which
// preserves the two properties the paper measures: query supervision reaches
// the model, and hybrid training must retain activations for all s samples
// across all n sampling steps — the s× memory and compute blow-up that makes
// UAE OOM on the 100-column dataset (Table III).
package uae

import (
	"errors"
	"math/rand"
	"time"

	"duet/internal/naru"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Config describes a UAE model.
type Config struct {
	Naru naru.Config
	// TrainSamples is the progressive-sampling budget per training query;
	// the effective query batch is QueryBatch × TrainSamples rows, which is
	// the memory-cost driver the paper analyzes in subsection IV-D.
	TrainSamples int
	Lambda       float64
}

// DefaultConfig mirrors the paper's UAE setup with a reduced training
// sample count (the original's 2000 OOMs a 48 GB GPU).
func DefaultConfig() Config {
	return Config{Naru: naru.DefaultConfig(), TrainSamples: 200, Lambda: 0.1}
}

// Model is a UAE estimator. Estimation is identical to Naru's progressive
// sampling; only training differs.
type Model struct {
	*naru.Model
	cfg       Config
	peakBytes int64
}

// New builds an untrained UAE model.
func New(t *relation.Table, cfg Config) *Model {
	return &Model{Model: naru.New(t, cfg.Naru), cfg: cfg}
}

// Name identifies the estimator.
func (m *Model) Name() string { return "uae" }

// PeakTrainBytes reports the peak bytes of retained query-path activations
// observed during hybrid training — the quantity that makes UAE OOM.
func (m *Model) PeakTrainBytes() int64 { return m.peakBytes }

// ErrOOM is returned when hybrid training would exceed the configured
// memory budget, reproducing the paper's OOM entries without actually
// exhausting the machine.
var ErrOOM = errors.New("uae: hybrid training exceeds memory budget (OOM)")

// TrainConfig controls UAE hybrid training.
type TrainConfig struct {
	Epochs     int
	BatchSize  int
	LR         float64
	Workload   []workload.LabeledQuery
	QueryBatch int

	// MemLimitBytes bounds the retained query-path activations; exceeding
	// it aborts with ErrOOM (0 = unlimited). The Table III harness sets the
	// limit of the paper's 10 GB GPU.
	MemLimitBytes int64

	WildcardProb float64
	ClipNorm     float64
	Seed         int64
	OnEpoch      func(epoch int, s naru.EpochStats) bool
}

// DefaultTrainConfig returns UAE training defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, BatchSize: 256, LR: 1e-3, QueryBatch: 8,
		WildcardProb: 0.25, ClipNorm: 16, Seed: 42}
}

// Train fits the model hybridly: per step, Naru's data cross-entropy plus
// λ × log(QErr) backpropagated through differentiable progressive sampling.
// Unlike Duet's single-forward query loss, every training query costs
// 2 × n_constrained forward passes of batch TrainSamples (forward, then
// re-forward per step during backprop) and retains all step inputs.
func Train(m *Model, cfg TrainConfig) ([]naru.EpochStats, error) {
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	hybrid := m.cfg.Lambda > 0 && len(cfg.Workload) > 0
	nRows := m.Table().NumRows()
	var hist []naru.EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		perm := rng.Perm(nRows)
		var lossSum float64
		var steps int
		for off := 0; off < nRows; off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > nRows {
				end = nRows
			}
			rows := perm[off:end]
			nn.ZeroGrads(m.Params())
			lossSum += m.dataStep(rows, rng, cfg.WildcardProb)
			if hybrid {
				for i := 0; i < cfg.QueryBatch; i++ {
					lq := cfg.Workload[rng.Intn(len(cfg.Workload))]
					if err := m.queryStep(lq, cfg.MemLimitBytes, cfg.QueryBatch); err != nil {
						return hist, err
					}
				}
			}
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(m.Params(), cfg.ClipNorm)
			}
			opt.Step(m.Params())
			steps++
		}
		dur := time.Since(start)
		s := naru.EpochStats{Epoch: epoch, DataLoss: lossSum / float64(steps), Tuples: nRows}
		if sec := dur.Seconds(); sec > 0 {
			s.TuplesPerSec = float64(nRows) / sec
		}
		hist = append(hist, s)
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, s) {
			break
		}
	}
	return hist, nil
}

// dataStep is one unsupervised batch (same objective as Naru's Train).
func (m *Model) dataStep(rows []int, rng *rand.Rand, wildcardProb float64) float64 {
	codes := make([][]int32, len(rows))
	labels := make([][]int32, len(rows))
	for i, r := range rows {
		labels[i] = m.Table().RowCodes(r, nil)
		in := append([]int32(nil), labels[i]...)
		for c := range in {
			if rng.Float64() < wildcardProb {
				in[c] = -1
			}
		}
		codes[i] = in
	}
	net := m.Net()
	logits := net.Forward(m.BuildInput(codes))
	d := tensor.New(logits.Rows, logits.Cols)
	loss := nn.SoftmaxCE(logits, net.Out, labels, d, nil)
	net.Backward(d)
	return loss
}

// queryStep backpropagates λ·log2(QErr+1) for one training query through
// straight-through progressive sampling. All step inputs and in-range masses
// are retained until the backward sweep completes; their footprint is
// tracked in peakBytes and checked against the memory budget.
func (m *Model) queryStep(lq workload.LabeledQuery, memLimit int64, queryBatch int) error {
	tbl := m.Table()
	net := m.Net()
	ivs := lq.Query.ColumnIntervals(tbl)
	cols := lq.Query.Columns()
	if len(cols) == 0 {
		return nil
	}
	for _, c := range cols {
		if ivs[c].Empty() {
			return nil
		}
	}
	s := m.cfg.TrainSamples
	rng := rand.New(rand.NewSource(int64(lq.Card)*2654435761 + 17))

	// Projected retained footprint: per step, the s×inTot input plus the
	// s-wide masses, for every query in the step's batch (the paper's
	// bs × s effective batch). Abort like the real system would.
	perQuery := int64(len(cols)) * int64(s) * int64(net.In.Tot+1) * 4
	// Retained layer activations during the per-step re-forward/backward:
	var actPerSample int64
	for _, h := range append([]int{net.In.Tot}, net.Out.Tot) {
		actPerSample += int64(h)
	}
	footprint := perQuery*int64(queryBatch) + actPerSample*int64(s)*4
	if footprint > m.peakBytes {
		m.peakBytes = footprint
	}
	if memLimit > 0 && footprint > memLimit {
		return ErrOOM
	}

	// Forward sweep: record every step's input, masses and probabilities.
	stepInputs := make([]*tensor.Matrix, len(cols))
	masses := make([][]float64, len(cols))
	x := tensor.New(s, net.In.Tot)
	for b := 0; b < s; b++ {
		row := x.Row(b)
		for i := 0; i < tbl.NumCols(); i++ {
			m.EncodeWildcardBlock(row, i)
		}
	}
	probsBuf := make([]float32, maxNDV(tbl))
	weights := make([]float64, s)
	for i := range weights {
		weights[i] = 1
	}
	for k, c := range cols {
		stepInputs[k] = x.Clone()
		logits := net.Forward(x)
		iv := ivs[c]
		masses[k] = make([]float64, s)
		for b := 0; b < s; b++ {
			seg := net.Out.Slice(logits.Row(b), c)
			probs := probsBuf[:len(seg)]
			nn.Softmax(probs, seg)
			var mass float64
			for v := iv.Lo; v <= iv.Hi; v++ {
				mass += float64(probs[v])
			}
			if mass < 1e-12 {
				mass = 1e-12
			}
			masses[k][b] = mass
			weights[b] *= mass
			u := rng.Float64() * mass
			var acc float64
			chosen := iv.Hi
			for v := iv.Lo; v <= iv.Hi; v++ {
				acc += float64(probs[v])
				if acc >= u {
					chosen = v
					break
				}
			}
			m.EncodeValueBlock(x.Row(b), c, chosen)
		}
	}
	var est float64
	for _, w := range weights {
		est += w
	}
	est = est / float64(s) * float64(tbl.NumRows())
	_, dEst := nn.QErrorLossGrad(est, float64(lq.Card), 1)
	dEst *= m.cfg.Lambda / float64(queryBatch)

	// Backward sweep: re-forward each step to restore caches, then inject
	// the gradient of its masked mass.
	total := float64(tbl.NumRows()) / float64(s)
	for k := len(cols) - 1; k >= 0; k-- {
		c := cols[k]
		iv := ivs[c]
		logits := net.Forward(stepInputs[k])
		dLogits := tensor.New(s, net.Out.Tot)
		for b := 0; b < s; b++ {
			// d est / d mass_kb = |T|/s · Π_{j≠k} mass_jb
			loo := 1.0
			for j := range cols {
				if j != k {
					loo *= masses[j][b]
				}
			}
			dMass := dEst * total * loo
			seg := net.Out.Slice(logits.Row(b), c)
			probs := probsBuf[:len(seg)]
			nn.Softmax(probs, seg)
			f := float32(masses[k][b])
			dSeg := net.Out.Slice(dLogits.Row(b), c)
			for v, p := range probs {
				in := float32(0)
				if int32(v) >= iv.Lo && int32(v) <= iv.Hi {
					in = 1
				}
				dSeg[v] += float32(dMass) * p * (in - f)
			}
		}
		net.Backward(dLogits)
	}
	return nil
}

func maxNDV(t *relation.Table) int {
	mx := 0
	for _, c := range t.Cols {
		if d := c.NumDistinct(); d > mx {
			mx = d
		}
	}
	return mx
}
