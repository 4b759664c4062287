package core

import (
	"math/rand"
	"testing"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

// BenchmarkEstimateCard measures Duet's single-query estimation latency —
// the paper's headline O(1) operation (one forward pass + masked product).
func BenchmarkEstimateCard(b *testing.B) {
	tbl := tinyTable(1000)
	m := NewModel(tbl, tinyConfig())
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGe, Code: 2},
		{Col: 2, Op: workload.OpLe, Code: 9},
	}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateCard(q)
	}
}

// BenchmarkEstimateCardBatch64 measures the amortized batched path.
func BenchmarkEstimateCardBatch64(b *testing.B) {
	tbl := tinyTable(1000)
	m := NewModel(tbl, tinyConfig())
	qs := workload.Generate(tbl, workload.GenConfig{
		Seed: 1, NumQueries: 64, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateCardBatch(qs)
	}
}

// BenchmarkVirtualTupleSampling measures Algorithm 1's vectorized sampler.
func BenchmarkVirtualTupleSampling(b *testing.B) {
	tbl := tinyTable(2000)
	rows := make([]int, 256)
	for i := range rows {
		rows[i] = i
	}
	cfg := SamplerConfig{Mu: 4, WildcardProb: 0.25, Seed: 1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sampleVirtualTuples(tbl, rows, cfg, i)
	}
}

// BenchmarkTrainStep measures one full hybrid SGD step (data + query pass).
func BenchmarkTrainStep(b *testing.B) {
	tbl := tinyTable(512)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 512 // one step per epoch
	cfg.Lambda = 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, cfg)
	}
}

// benchTrainStep times data-only training steps at the paper's batch (256
// tuples × µ 4 = 1,024 network rows) on a 20,000-row table streamed through a
// TupleSource, two steps per Train call so the step buffers are reused the
// way a training run reuses them, and reports source tuples per second — the
// figure benchmark/ publishes as core.train_tuples_per_s.
func benchTrainStep(b *testing.B, tbl *relation.Table, cfg Config) {
	benchTrainSteps(b, tbl, cfg, 0, nil)
}

// benchTrainSteps is benchTrainStep with λ lambda and the labelled queries
// wl, which the caller labels before the timer starts: each step adds a
// query pass over QueryBatch (64) of them, the hybrid half of Algorithm 2.
func benchTrainSteps(b *testing.B, tbl *relation.Table, cfg Config, lambda float64, wl []workload.LabeledQuery) {
	const steps = 2
	m := NewModel(tbl, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.Lambda = lambda
	tc.Workload = wl
	tc.Source = &cyclingSource{t: tbl}
	tc.SourceRows = steps * tc.BatchSize
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Train(m, tc)
	}
	b.ReportMetric(float64(b.N*tc.SourceRows)/b.Elapsed().Seconds(), "tuples/s")
}

// BenchmarkTrainStepDMV is the paper's DMV configuration: plain MADE
// 512-256-512-128-1024 over 11 columns and 2,079 logits, ~16 GFLOP a step.
func BenchmarkTrainStepDMV(b *testing.B) {
	benchTrainStep(b, relation.SynDMV(20000, 1), DMVConfig())
}

// BenchmarkTrainStepCensus is the paper's default configuration: ResMADE
// 128-128 over 14 columns, where the GEMMs are under half of a step.
func BenchmarkTrainStepCensus(b *testing.B) {
	benchTrainStep(b, relation.SynCensus(20000, 1), DefaultConfig())
}

// benchTrainStepHybrid is benchTrainStep at the paper's λ 0.1 with 1,500
// In-Q training queries, labelled outside the timer.
func benchTrainStepHybrid(b *testing.B, tbl *relation.Table, cfg Config) {
	wl := exec.Label(tbl, workload.Generate(tbl, workload.InQConfig(tbl.NumCols(), 1500, workload.LargestColumn(tbl))))
	benchTrainSteps(b, tbl, cfg, 0.1, wl)
}

// BenchmarkTrainStepCensusHybrid is BenchmarkTrainStepCensus with the query
// loss: Duet rather than DuetD.
func BenchmarkTrainStepCensusHybrid(b *testing.B) {
	benchTrainStepHybrid(b, relation.SynCensus(20000, 1), DefaultConfig())
}

// BenchmarkTrainStepDMVHybrid is BenchmarkTrainStepDMV with the query loss.
func BenchmarkTrainStepDMVHybrid(b *testing.B) {
	benchTrainStepHybrid(b, relation.SynDMV(20000, 1), DMVConfig())
}

// BenchmarkEstimateBurstDMV is one embed_burst call without the harness: 64
// distinct Rand-Q queries per EstimateCardBatch on an untrained DMV model
// over a 20,000-row SynDMV table. Its µs/call is the plan plus the masked
// product; BenchmarkPlanForward in internal/made prices the plan alone.
func BenchmarkEstimateBurstDMV(b *testing.B) {
	tbl := relation.SynDMV(20000, 1)
	benchBurst(b, tbl, NewModel(tbl, DMVConfig()))
}

// BenchmarkEstimateBurstDMVTrained is BenchmarkEstimateBurstDMV on the model
// embed_burst serves: trained like benchmark/stack.go's trainModel, one
// data-only epoch over 512 tuples drawn from a seed-1 row source.
func BenchmarkEstimateBurstDMVTrained(b *testing.B) {
	tbl := relation.SynDMV(20000, 1)
	m := NewModel(tbl, DMVConfig())
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.Lambda = 0
	tc.Source = &goldenRowSource{t: tbl, rng: rand.New(rand.NewSource(1))}
	tc.SourceRows = 512
	Train(m, tc)
	benchBurst(b, tbl, m)
}

func benchBurst(b *testing.B, tbl *relation.Table, m *Model) {
	qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), 64))
	m.EstimateCardBatch(qs) // compile the snapshot, warm the pools
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.EstimateCardBatch(qs)
	}
	b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N), "µs/call")
}
