package core

import (
	"testing"

	"duet/internal/exec"
	"duet/internal/workload"
)

func TestImportanceSamplingKeepsInvariant(t *testing.T) {
	tbl := samplerTable(300)
	history := workload.Generate(tbl, workload.GenConfig{
		Seed: 21, NumQueries: 100, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	st := BuildImportanceStats(tbl.NumCols(), history)
	rows := make([]int, 64)
	for i := range rows {
		rows[i] = i * 2
	}
	cfg := SamplerConfig{Mu: 2, Seed: 5, Importance: st, ImportanceProb: 0.7}
	specs, labels := sampleVirtualTuples(tbl, rows, cfg, 0)
	// The core invariant I(x, x') = 1 must hold regardless of the sampling
	// distribution: every predicate is satisfied by its source tuple.
	for k, spec := range specs {
		for col, preds := range spec {
			for _, p := range preds {
				wp := workload.Predicate{Col: col, Op: p.Op, Code: p.Code}
				if !wp.Matches(labels[k][col]) {
					t.Fatalf("importance-sampled predicate %v violates source tuple %d", wp, labels[k][col])
				}
			}
		}
	}
}

func TestImportanceSamplingBiasesTowardHistory(t *testing.T) {
	tbl := samplerTable(400)
	// History uses only equality predicates on column 0.
	var history []workload.Query
	for code := int32(0); code < 5; code++ {
		history = append(history, workload.Query{Preds: []workload.Predicate{
			{Col: 0, Op: workload.OpEq, Code: code}}})
	}
	st := BuildImportanceStats(tbl.NumCols(), history)
	rows := make([]int, 400)
	for i := range rows {
		rows[i] = i
	}
	countEq := func(specs []Spec) (eq, total int) {
		for _, spec := range specs {
			for _, p := range spec[0] {
				total++
				if p.Op == workload.OpEq {
					eq++
				}
			}
		}
		return
	}
	uniform, _ := sampleVirtualTuples(tbl, rows, SamplerConfig{Mu: 1, Seed: 3}, 0)
	biased, _ := sampleVirtualTuples(tbl, rows, SamplerConfig{
		Mu: 1, Seed: 3, Importance: st, ImportanceProb: 0.9}, 0)
	eqU, totU := countEq(uniform)
	eqB, totB := countEq(biased)
	rateU := float64(eqU) / float64(totU)
	rateB := float64(eqB) / float64(totB)
	if rateB <= rateU {
		t.Fatalf("importance sampling did not bias toward history: uniform %.2f vs biased %.2f", rateU, rateB)
	}
}

func TestBuildImportanceStatsIgnoresBadColumns(t *testing.T) {
	st := BuildImportanceStats(2, []workload.Query{
		{Preds: []workload.Predicate{{Col: 5, Op: workload.OpEq, Code: 1}}},
		{Preds: []workload.Predicate{{Col: 1, Op: workload.OpLe, Code: 2}}},
	})
	if len(st.perCol[1]) != 1 {
		t.Fatalf("col 1 pool: %d", len(st.perCol[1]))
	}
}

func TestTrainWithImportanceSampling(t *testing.T) {
	tbl := tinyTable(250)
	train := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 42, NumQueries: 100, MinPreds: 1, MaxPreds: 2, BoundedCol: -1}))
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 128
	cfg.Lambda = 0.1
	cfg.Workload = train
	cfg.ImportanceProb = 0.5
	hist := Train(m, cfg)
	if len(hist) != 3 || hist[2].DataLoss >= hist[0].DataLoss {
		t.Fatalf("importance-sampled training failed to converge: %+v", hist)
	}
}
