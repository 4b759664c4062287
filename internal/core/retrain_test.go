package core

import (
	"math"
	"testing"

	"duet/internal/relation"
	"duet/internal/workload"
)

// TestCloneForCopiesWeights clones a trained model onto an appended table
// with unchanged dictionaries; estimates must be bitwise equal up to the row
// scaling (same selectivity, new row count).
func TestCloneForCopiesWeights(t *testing.T) {
	tbl := retrainTable(t)
	m := NewModel(tbl, testConfig())
	tc := DefaultTrainConfig()
	tc.Epochs, tc.Lambda = 1, 0
	Train(m, tc)

	// Appending existing values keeps every dictionary (NDV profile) intact.
	grown, err := relation.AppendRows(tbl, [][]string{{"3", "1"}, {"7", "0"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodingCompatible(tbl.NDVs(), grown); err != nil {
		t.Fatalf("append without fresh values must stay compatible: %v", err)
	}
	clone, err := m.CloneFor(grown)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 4}}}
	src := m.EstimateCard(q) / float64(tbl.NumRows())
	dst := clone.EstimateCard(q) / float64(grown.NumRows())
	if math.Float64bits(src) != math.Float64bits(dst) {
		t.Fatalf("clone selectivity %v != source %v", dst, src)
	}

	// Weight copies are independent: fine-tuning the clone must not move the
	// source.
	before := m.EstimateCard(q)
	FineTune(clone, []workload.LabeledQuery{{Query: q, Card: 1}},
		FineTuneConfig{Steps: 5, QueryBatch: 4, LR: 1e-2, Lambda: 1, Seed: 7})
	if got := m.EstimateCard(q); math.Float64bits(got) != math.Float64bits(before) {
		t.Fatalf("fine-tuning the clone changed the source: %v -> %v", before, got)
	}
}

// TestEncodingCompatibleRejectsGrownDictionary: a fresh value grows the
// dictionary, which must force the full-retrain path.
func TestEncodingCompatibleRejectsGrownDictionary(t *testing.T) {
	tbl := retrainTable(t)
	m := NewModel(tbl, testConfig())
	grown, err := relation.AppendRows(tbl, [][]string{{"999", "1"}})
	if err != nil {
		t.Fatal(err)
	}
	if err := EncodingCompatible(tbl.NDVs(), grown); err == nil {
		t.Fatal("grown dictionary reported compatible")
	}
	if _, err := m.CloneFor(grown); err == nil {
		t.Fatal("CloneFor accepted an incompatible table")
	}
}

func retrainTable(t *testing.T) *relation.Table {
	t.Helper()
	a := make([]int64, 200)
	b := make([]int64, 200)
	for i := range a {
		a[i] = int64(i % 10)
		b[i] = int64(i % 2)
	}
	return relation.NewTable("rt", []*relation.Column{
		relation.NewIntColumn("a", a),
		relation.NewIntColumn("b", b),
	})
}

func testConfig() Config {
	c := DefaultConfig()
	c.Hidden = []int{16, 16}
	c.EmbedDim = 8
	return c
}
