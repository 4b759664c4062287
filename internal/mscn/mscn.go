// Package mscn implements the MSCN baseline (Kipf et al., CIDR 2019) for
// single-table workloads: a set-based query-driven regressor. Each predicate
// is featurized as [column one-hot | operator one-hot | normalized value],
// embedded by a shared MLP, mean-pooled, and regressed to a normalized
// log-cardinality by a head MLP. It is purely query-driven: fast and
// accurate in-workload, but subject to workload drift (the paper's Problem
// 5), which Table II's Rand-Q columns expose.
package mscn

import (
	"math"
	"math/rand"

	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Config describes an MSCN model.
type Config struct {
	Hidden int // width of both MLPs
	Seed   int64
}

// DefaultConfig mirrors the usual MSCN(bitmaps)-style 256-unit setting at a
// single-table scale.
func DefaultConfig() Config { return Config{Hidden: 128, Seed: 42} }

// Model is an MSCN estimator.
type Model struct {
	table *relation.Table
	cfg   Config

	featW   int
	predNet *nn.Sequential // per-predicate embedding
	headNet *nn.Sequential // pooled embedding -> normalized log card
	params  []*nn.Param

	logMax float64 // log(|T|+1): normalization range
}

// New builds an untrained MSCN model.
func New(t *relation.Table, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{table: t, cfg: cfg}
	m.featW = t.NumCols() + int(workload.NumOps) + 1
	h := cfg.Hidden
	m.predNet = nn.NewSequential(
		nn.NewLinear(m.featW, h, rng), nn.NewReLU(),
		nn.NewLinear(h, h, rng), nn.NewReLU(),
	)
	m.headNet = nn.NewSequential(
		nn.NewLinear(h, h, rng), nn.NewReLU(),
		nn.NewLinear(h, 1, rng), nn.NewSigmoid(),
	)
	m.params = append(m.predNet.Params(), m.headNet.Params()...)
	m.logMax = math.Log(float64(t.NumRows()) + 1)
	return m
}

// Name identifies the estimator.
func (m *Model) Name() string { return "mscn" }

// SizeBytes reports parameter memory.
func (m *Model) SizeBytes() int64 { return nn.SizeBytes(m.params) }

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// featurize writes one predicate's features.
func (m *Model) featurize(dst []float32, p workload.Predicate) {
	for i := range dst {
		dst[i] = 0
	}
	dst[p.Col] = 1
	dst[m.table.NumCols()+int(p.Op)] = 1
	ndv := m.table.Cols[p.Col].NumDistinct()
	denom := float64(ndv - 1)
	if denom < 1 {
		denom = 1
	}
	dst[m.featW-1] = float32(float64(p.Code) / denom)
}

// pool runs the predicate net over a flattened batch and mean-pools per
// query. rows[i] gives the query of flattened predicate i.
func (m *Model) pool(flat *tensor.Matrix, rows []int32, nQueries int, counts []int) *tensor.Matrix {
	emb := m.predNet.Forward(flat)
	pooled := tensor.New(nQueries, emb.Cols)
	for i, r := range rows {
		dst := pooled.Row(int(r))
		for j, v := range emb.Row(i) {
			dst[j] += v
		}
	}
	for qi := 0; qi < nQueries; qi++ {
		if counts[qi] > 0 {
			inv := float32(1.0 / float64(counts[qi]))
			row := pooled.Row(qi)
			for j := range row {
				row[j] *= inv
			}
		}
	}
	return pooled
}

// forwardBatch returns the normalized log-card predictions for queries.
func (m *Model) forwardBatch(queries []workload.Query) (*tensor.Matrix, *tensor.Matrix, []int32, []int) {
	total := 0
	for _, q := range queries {
		total += len(q.Preds)
	}
	flat := tensor.New(total, m.featW)
	rows := make([]int32, total)
	counts := make([]int, len(queries))
	k := 0
	for qi, q := range queries {
		counts[qi] = len(q.Preds)
		for _, p := range q.Preds {
			m.featurize(flat.Row(k), p)
			rows[k] = int32(qi)
			k++
		}
	}
	pooled := m.pool(flat, rows, len(queries), counts)
	out := m.headNet.Forward(pooled)
	return out, pooled, rows, counts
}

// EstimateCard predicts the query's cardinality.
func (m *Model) EstimateCard(q workload.Query) float64 {
	if len(q.Preds) == 0 {
		return float64(m.table.NumRows())
	}
	out, _, _, _ := m.forwardBatch([]workload.Query{q})
	return m.denormalize(float64(out.Data[0]))
}

func (m *Model) normalize(card float64) float64 {
	if card < 1 {
		card = 1
	}
	return math.Log(card) / m.logMax
}

func (m *Model) denormalize(y float64) float64 {
	return math.Exp(y * m.logMax)
}

// TrainConfig controls supervised training.
type TrainConfig struct {
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultTrainConfig returns MSCN training defaults.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 60, BatchSize: 64, LR: 1e-3, Seed: 42}
}

// Train fits the model on the labeled workload with MSE over normalized
// log-cardinalities and returns the per-epoch training loss.
func Train(m *Model, queries []workload.LabeledQuery, cfg TrainConfig) []float64 {
	opt := nn.NewAdam(cfg.LR)
	rng := rand.New(rand.NewSource(cfg.Seed))
	var epochLosses []float64
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		perm := rng.Perm(len(queries))
		var lossSum float64
		var steps int
		for off := 0; off < len(perm); off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > len(perm) {
				end = len(perm)
			}
			batch := make([]workload.Query, 0, end-off)
			targets := make([]float32, 0, end-off)
			for _, idx := range perm[off:end] {
				lq := queries[idx]
				if len(lq.Query.Preds) == 0 {
					continue
				}
				batch = append(batch, lq.Query)
				targets = append(targets, float32(m.normalize(float64(lq.Card))))
			}
			if len(batch) == 0 {
				continue
			}
			nn.ZeroGrads(m.params)
			out, _, rows, counts := m.forwardBatch(batch)
			tgt := tensor.FromSlice(len(batch), 1, targets)
			dOut := tensor.New(len(batch), 1)
			loss := nn.MSE(out, tgt, dOut)
			dPooled := m.headNet.Backward(dOut)
			// Un-pool: distribute each query's gradient to its predicates.
			dEmb := tensor.New(len(rows), dPooled.Cols)
			for i, r := range rows {
				inv := float32(1.0 / float64(counts[r]))
				src := dPooled.Row(int(r))
				dst := dEmb.Row(i)
				for j, v := range src {
					dst[j] = v * inv
				}
			}
			m.predNet.Backward(dEmb)
			nn.ClipGradNorm(m.params, 16)
			opt.Step(m.params)
			lossSum += loss
			steps++
		}
		epochLosses = append(epochLosses, lossSum/float64(steps))
	}
	return epochLosses
}
