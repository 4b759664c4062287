package naru

import (
	"math/rand"
	"testing"

	"duet/internal/exec"
	"duet/internal/relation"
	"duet/internal/workload"
)

func testTable(rows int) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: 31,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 8, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 4, Skew: 0, Parent: 0, Noise: 0.1},
			{Name: "c", NDV: 100, Skew: 1.2, Parent: -1},
		},
	})
}

func smallConfig() Config {
	c := DefaultConfig()
	c.Hidden = []int{32, 32}
	c.Samples = 128
	return c
}

func TestCodecEncoding(t *testing.T) {
	c := newCodec(5, 64)
	if !c.oneHot || c.width != 5 {
		t.Fatalf("small domain should be one-hot: %+v", c)
	}
	buf := make([]float32, c.width+1)
	c.encode(buf, 3)
	if buf[3] != 1 || buf[5] != 0 {
		t.Fatalf("encode: %v", buf)
	}
	c.encode(buf, -1)
	if buf[5] != 1 || buf[3] != 0 {
		t.Fatalf("wildcard: %v", buf)
	}
	cb := newCodec(100, 64)
	if cb.oneHot || cb.width != 7 {
		t.Fatalf("large domain should be binary: %+v", cb)
	}
}

func TestBuildInputValidates(t *testing.T) {
	m := New(testTable(50), smallConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on ragged rows")
		}
	}()
	m.BuildInput([][]int32{{1, 2}})
}

func TestUntrainedEstimateSane(t *testing.T) {
	tbl := testTable(100)
	m := New(tbl, smallConfig())
	if got := m.EstimateCard(workload.Query{}); got != 100 {
		t.Fatalf("empty query: %v", got)
	}
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGt, Code: 5},
		{Col: 0, Op: workload.OpLt, Code: 2},
	}}
	if got := m.EstimateCard(q); got != 0 {
		t.Fatalf("contradiction: %v", got)
	}
}

func TestTrainImprovesNaru(t *testing.T) {
	tbl := testTable(400)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 5, NumQueries: 60, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	labeled := exec.Label(tbl, qs)
	m := New(tbl, smallConfig())
	meanErr := func() float64 {
		m.SetSeed(7)
		var sum float64
		for _, lq := range labeled {
			sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
		}
		return sum / float64(len(labeled))
	}
	before := meanErr()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	cfg.BatchSize = 128
	hist := Train(m, cfg)
	after := meanErr()
	if after >= before {
		t.Fatalf("training did not help: %.3f -> %.3f", before, after)
	}
	if after > 4 {
		t.Fatalf("trained Naru mean Q-Error %.3f", after)
	}
	if hist[len(hist)-1].DataLoss >= hist[0].DataLoss {
		t.Fatal("loss did not decrease")
	}
	if hist[0].TuplesPerSec <= 0 {
		t.Fatal("throughput not measured")
	}
}

// TestInstability demonstrates the paper's Problem (4): progressive sampling
// gives different estimates for the same query under different RNG states,
// whereas Duet is deterministic (tested in the core package).
func TestInstability(t *testing.T) {
	tbl := testTable(300)
	m := New(tbl, smallConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 128
	Train(m, cfg)
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 2, Op: workload.OpLe, Code: 40},
		{Col: 0, Op: workload.OpGe, Code: 2},
	}}
	m.SetSeed(1)
	a := m.EstimateCard(q)
	m.SetSeed(2)
	b := m.EstimateCard(q)
	if a == b {
		t.Skip("estimates happened to coincide; instability is statistical")
	}
	// And with the same seed the estimate is reproducible.
	m.SetSeed(1)
	if c := m.EstimateCard(q); c != a {
		t.Fatalf("same RNG state must reproduce: %v vs %v", a, c)
	}
}

func TestEstimateDetailBreakdown(t *testing.T) {
	tbl := testTable(200)
	m := New(tbl, smallConfig())
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpLe, Code: 5},
		{Col: 2, Op: workload.OpGe, Code: 10},
	}}
	card, encNS, infNS, sampNS := m.EstimateDetail(q)
	if card < 0 || card > 200 {
		t.Fatalf("card %v", card)
	}
	if infNS <= 0 || sampNS <= 0 {
		t.Fatalf("breakdown enc=%d inf=%d samp=%d", encNS, infNS, sampNS)
	}
}

func TestWildcardSkipping(t *testing.T) {
	// A query constraining one column must run exactly one sampling step;
	// its latency should not scale with the unconstrained column count.
	tbl := testTable(200)
	m := New(tbl, smallConfig())
	q1 := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 5}}}
	card := m.EstimateCard(q1)
	if card <= 0 {
		t.Fatalf("one-predicate estimate %v", card)
	}
}

// TestTrainEpochsStopsWhereOnEpochSays: the epoch whose OnEpoch returns false
// is the last one run, and every epoch walks each row exactly once.
func TestTrainEpochsStopsWhereOnEpochSays(t *testing.T) {
	m := New(testTable(90), smallConfig())
	cfg := TrainConfig{Epochs: 5, BatchSize: 40, OnEpoch: func(epoch int, _ EpochStats) bool { return epoch < 1 }}
	seen := make([]int, 90)
	steps := 0
	hist, err := m.TrainEpochs(cfg, rand.New(rand.NewSource(3)), func(rows []int) (float64, error) {
		for _, r := range rows {
			seen[r]++
		}
		steps++
		return float64(len(rows)), nil
	})
	if err != nil || len(hist) != 2 {
		t.Fatalf("got %d epochs, err %v; want 2 (OnEpoch false after epoch 1)", len(hist), err)
	}
	if steps != 6 { // ceil(90/40) = 3 batches per epoch
		t.Fatalf("%d steps, want 6", steps)
	}
	for r, n := range seen {
		if n != 2 {
			t.Fatalf("row %d visited %d times in 2 epochs", r, n)
		}
	}
	if hist[1].Epoch != 1 || hist[1].DataLoss != 30 || hist[1].Tuples != 90 {
		t.Fatalf("epoch stats %+v: want epoch 1, mean loss 30 over 90 tuples", hist[1])
	}
}
