package core

import (
	"math"
	"testing"

	"duet/internal/exec"
	"duet/internal/made"
	"duet/internal/workload"
)

// referenceCard estimates q through the training-time layer stack (Forward),
// the reference the packed plan is compared against.
func referenceCard(m *Model, q workload.Query) float64 {
	logits := m.Forward([]Spec{m.SpecFromQuery(q)})
	probs := make([]float32, len(logits.Row(0)))
	var cols []int32
	for _, c := range q.Columns() {
		cols = append(cols, int32(c))
	}
	return m.current().maskedProduct(probs, logits.Row(0), q.ColumnIntervals(m.table), cols) * float64(m.table.NumRows())
}

// TestEstimateCardIsBatchOfOne: on every model/plan kind, EstimateCardBatch
// returns bitwise the same for a query alone and inside a 600-query batch
// (three 256-row chunks), as do a model's EstimateCard and EstimateDetail,
// and that number tracks the reference layer stack within the kind's
// documented bound.
func TestEstimateCardIsBatchOfOne(t *testing.T) {
	tbl := tinyTable(200)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 64
	tc.Lambda = 0
	mlp := tinyConfig()
	mlp.MPSN = MPSNMLP
	mlp.MPSNHidden = 16
	mlp.MPSNOut = 8
	kinds := []struct {
		name  string
		cfg   Config
		setup func(*Model) batchEstimator
		tol   float64 // relative bound against the reference forward
	}{
		{"direct", tinyConfig(), func(m *Model) batchEstimator { return m }, 1e-5},
		{"mlp-mpsn", mlp, func(m *Model) batchEstimator { return m }, 1e-5},
		{"int8", tinyConfig(), func(m *Model) batchEstimator { return m.Compile(made.PlanConfig{Quantize: true}) }, 0.3},
	}
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 3, NumQueries: 600, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			m := NewModel(tbl, k.cfg)
			Train(m, tc)
			est := k.setup(m)
			batch := est.EstimateCardBatch(qs)
			for i, q := range qs {
				single := est.EstimateCardBatch([]workload.Query{q})[0]
				// Batch composition must not matter.
				if single != batch[i] {
					t.Fatalf("query %d: batch of one %v vs full batch %v", i, single, batch[i])
				}
				if est == batchEstimator(m) {
					if card := m.EstimateCard(q); card != single {
						t.Fatalf("query %d: EstimateCard %v vs batch of one %v", i, card, single)
					}
					if detail, _, _ := m.EstimateDetail(q); detail != single {
						t.Fatalf("query %d: EstimateDetail %v vs batch of one %v", i, detail, single)
					}
				}
				// The packed plan re-orders floating-point additions (and
				// int8 rounds weights), so the reference agrees within a
				// bound, not bitwise.
				ref := referenceCard(m, q)
				if math.Abs(single-ref) > 1e-9+k.tol*math.Max(single, ref) {
					t.Fatalf("query %d: planned %v vs reference forward %v", i, single, ref)
				}
			}
		})
	}
}

func TestEstimateBatchEmpty(t *testing.T) {
	tbl := tinyTable(50)
	m := NewModel(tbl, tinyConfig())
	if out := m.EstimateCardBatch(nil); len(out) != 0 {
		t.Fatal("empty batch")
	}
}

func TestFineTuneReducesLossOnBadQueries(t *testing.T) {
	tbl := tinyTable(400)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 4
	cfg.BatchSize = 128
	cfg.Lambda = 0
	Train(m, cfg)

	test := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 5, NumQueries: 150, MinPreds: 1, MaxPreds: 3, BoundedCol: -1}))
	bad := CollectBadQueries(m, test, 1.5)
	if len(bad) == 0 {
		t.Skip("model already accurate enough; nothing to fine-tune")
	}
	meanErr := func(ws []workload.LabeledQuery) float64 {
		var sum float64
		for _, lq := range ws {
			sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
		}
		return sum / float64(len(ws))
	}
	before := meanErr(bad)
	ft := DefaultFineTuneConfig()
	ft.Steps = 120
	losses := FineTune(m, bad, ft)
	after := meanErr(bad)
	if after >= before {
		t.Fatalf("fine-tuning did not improve the long tail: %.3f -> %.3f", before, after)
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("fine-tune loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestFineTuneNoQueriesNoop(t *testing.T) {
	tbl := tinyTable(50)
	m := NewModel(tbl, tinyConfig())
	if out := FineTune(m, nil, DefaultFineTuneConfig()); out != nil {
		t.Fatal("fine-tune on empty set should be a no-op")
	}
}

func TestCollectBadQueriesThreshold(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	test := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{
		Seed: 7, NumQueries: 50, MinPreds: 1, MaxPreds: 2, BoundedCol: -1}))
	all := CollectBadQueries(m, test, 1.0)
	some := CollectBadQueries(m, test, 5.0)
	if len(some) > len(all) {
		t.Fatal("higher threshold must not collect more queries")
	}
	huge := CollectBadQueries(m, test, 1e12)
	if len(huge) != 0 {
		t.Fatal("impossible threshold should collect nothing")
	}
}

func TestDetRandBounds(t *testing.T) {
	r := newDetRand(9)
	for i := 0; i < 1000; i++ {
		if v := r.Intn(7); v < 0 || v >= 7 {
			t.Fatalf("Intn out of range: %d", v)
		}
	}
	// Deterministic across instances with equal seeds.
	a, b := newDetRand(5), newDetRand(5)
	for i := 0; i < 100; i++ {
		if a.Intn(1000) != b.Intn(1000) {
			t.Fatal("detRand not deterministic")
		}
	}
}
