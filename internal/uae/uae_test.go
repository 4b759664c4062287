package uae

import (
	"errors"
	"testing"

	"duet/internal/exec"
	"duet/internal/naru"
	"duet/internal/relation"
	"duet/internal/workload"
)

func testTable(rows int) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: 41,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 8, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 4, Skew: 0, Parent: 0, Noise: 0.1},
			{Name: "c", NDV: 20, Skew: 1.2, Parent: -1},
		},
	})
}

func smallConfig() Config {
	c := DefaultConfig()
	c.Naru.Hidden = []int{32, 32}
	c.Naru.Samples = 64
	c.TrainSamples = 32
	return c
}

func TestHybridTrainingImproves(t *testing.T) {
	tbl := testTable(300)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 42, NumQueries: 80, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
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
	cfg.Epochs = 6
	cfg.BatchSize = 128
	cfg.QueryBatch = 4
	cfg.Workload = labeled
	hist, err := Train(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(hist) != 6 {
		t.Fatalf("epochs run: %d", len(hist))
	}
	after := meanErr()
	if after >= before {
		t.Fatalf("hybrid training did not help: %.3f -> %.3f", before, after)
	}
	if m.PeakTrainBytes() <= 0 {
		t.Fatal("peak memory not tracked")
	}
}

func TestMemoryBlowupAndOOM(t *testing.T) {
	tbl := relation.SynKDD(400, 1) // 100 columns: the regime where UAE OOMs
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 1, NumQueries: 20, MinPreds: 8, MaxPreds: 12, BoundedCol: -1})
	labeled := exec.Label(tbl, qs)
	cfg2 := smallConfig()
	cfg2.TrainSamples = 256
	m := New(tbl, cfg2)
	tc := DefaultTrainConfig()
	tc.Epochs = 1
	tc.BatchSize = 400
	tc.QueryBatch = 8
	tc.Workload = labeled
	tc.MemLimitBytes = 1 << 20 // 1 MiB budget: must blow
	_, err := Train(m, tc)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM, got %v", err)
	}
	if m.PeakTrainBytes() <= tc.MemLimitBytes {
		t.Fatalf("peak bytes %d should exceed the budget", m.PeakTrainBytes())
	}
}

func TestUAEName(t *testing.T) {
	m := New(testTable(50), smallConfig())
	if m.Name() != "uae" {
		t.Fatal("name")
	}
	if m.SizeBytes() <= 0 {
		t.Fatal("size")
	}
}

func TestDataOnlyFallback(t *testing.T) {
	// Without a workload UAE degenerates to Naru training and must not err.
	tbl := testTable(200)
	m := New(tbl, smallConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 100
	hist, err := Train(m, cfg)
	if err != nil || len(hist) != 2 {
		t.Fatalf("err=%v epochs=%d", err, len(hist))
	}
	if hist[1].DataLoss >= hist[0].DataLoss {
		t.Fatal("data loss should decrease")
	}
	_ = naru.DefaultConfig()
}

// TestOOMReturnsCompletedEpochs: a query step that exceeds the budget in the
// second epoch ends training with ErrOOM and exactly the first epoch's stats.
func TestOOMReturnsCompletedEpochs(t *testing.T) {
	tbl := testTable(200)
	qs := exec.Label(tbl, workload.Generate(tbl, workload.GenConfig{Seed: 3, NumQueries: 40, MinPreds: 1, MaxPreds: 3, BoundedCol: -1}))
	var narrow, wide []workload.LabeledQuery
	for _, lq := range qs {
		if len(lq.Query.Columns()) == 1 {
			narrow = append(narrow, lq)
		} else {
			wide = append(wide, lq)
		}
	}
	if len(narrow) == 0 || len(wide) == 0 {
		t.Fatal("workload needs one- and multi-column queries")
	}
	cfg := smallConfig()
	m := New(tbl, cfg)
	// Budget: one-column queries fit, wider ones do not (see queryStep).
	net := m.Net()
	tc := DefaultTrainConfig()
	tc.Epochs = 3
	tc.BatchSize = 64
	tc.QueryBatch = 2
	tc.MemLimitBytes = int64(cfg.TrainSamples)*int64(net.In.Tot+1)*4*int64(tc.QueryBatch) +
		int64(net.In.Tot+net.Out.Tot)*int64(cfg.TrainSamples)*4
	tc.Workload = narrow
	var first []naru.EpochStats
	tc.OnEpoch = func(_ int, s naru.EpochStats) bool {
		first = append(first, s)
		for i := range narrow { // from the second epoch on, every query is wide
			narrow[i] = wide[i%len(wide)]
		}
		return true
	}
	hist, err := Train(m, tc)
	if !errors.Is(err, ErrOOM) {
		t.Fatalf("expected ErrOOM in the second epoch, got %v", err)
	}
	if len(first) != 1 || len(hist) != 1 || hist[0] != first[0] {
		t.Fatalf("returned %+v, want exactly the first epoch's %+v", hist, first)
	}
}
