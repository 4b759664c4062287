package core

import (
	"duet/internal/nn"
	"duet/internal/workload"
)

// FineTuneConfig controls post-deployment fine-tuning on collected queries.
type FineTuneConfig struct {
	Steps      int     // gradient steps
	QueryBatch int     // queries per step
	LR         float64 // typically lower than the training LR
	Lambda     float64 // query-loss weight; data loss is not used here
	ClipNorm   float64
	Seed       int64
}

// DefaultFineTuneConfig returns conservative fine-tuning defaults.
func DefaultFineTuneConfig() FineTuneConfig {
	return FineTuneConfig{Steps: 200, QueryBatch: 32, LR: 2e-4, Lambda: 1, ClipNorm: 8, Seed: 42}
}

// FineTune performs the paper's targeted long-tail mitigation: queries with
// large observed errors are collected at run time and the model is tuned on
// their smoothed Q-Error alone. Because Duet's estimation path is
// differentiable this needs no sampling and no access to the original
// training pipeline. It returns the mean smoothed query loss per step.
func FineTune(m *Model, bad []workload.LabeledQuery, cfg FineTuneConfig) []float64 {
	if len(bad) == 0 || cfg.Steps <= 0 {
		return nil
	}
	if cfg.QueryBatch <= 0 {
		cfg.QueryBatch = 32
	}
	defer m.releaseTrainingBuffers()
	opt := nn.NewAdam(cfg.LR)
	rng := newDetRand(cfg.Seed)
	losses := make([]float64, 0, cfg.Steps)
	for step := 0; step < cfg.Steps; step++ {
		batch := make([]workload.LabeledQuery, cfg.QueryBatch)
		for i := range batch {
			batch[i] = bad[rng.Intn(len(bad))]
		}
		_, loss, _ := m.step(opt, nil, nil, batch, cfg.Lambda, cfg.ClipNorm)
		losses = append(losses, loss)
	}
	return losses
}

// CollectBadQueries evaluates the model on a labeled workload and returns
// the queries whose Q-Error exceeds the threshold — the run-time collection
// loop the paper describes for long-tail mitigation. Estimation runs through
// the batched plan, so scanning a large workload costs one forward pass per
// chunk rather than one per query.
func CollectBadQueries(m *Model, ws []workload.LabeledQuery, threshold float64) []workload.LabeledQuery {
	qs := make([]workload.Query, len(ws))
	for i, lq := range ws {
		qs[i] = lq.Query
	}
	ests := m.EstimateCardBatch(qs)
	var bad []workload.LabeledQuery
	for i, lq := range ws {
		if workload.QError(ests[i], float64(lq.Card)) > threshold {
			bad = append(bad, lq)
		}
	}
	return bad
}

// newDetRand isolates the rand import to keep call sites tidy.
func newDetRand(seed int64) *detRand { return &detRand{state: uint64(seed)*6364136223846793005 + 1} }

// detRand is a tiny deterministic PCG-style generator (avoids pulling a
// *rand.Rand through the API for one Intn call).
type detRand struct{ state uint64 }

// Intn returns a uniform int in [0, n).
func (r *detRand) Intn(n int) int {
	r.state = r.state*6364136223846793005 + 1442695040888963407
	x := (r.state >> 33) ^ r.state
	return int(x % uint64(n))
}
