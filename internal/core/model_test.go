package core

import (
	"bytes"
	"io"
	"math"
	"os"
	"runtime"
	"testing"

	"duet/internal/exec"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

func tinyTable(rows int) *relation.Table {
	return relation.Generate(relation.SynConfig{
		Name: "t", Rows: rows, Seed: 21,
		Cols: []relation.ColSpec{
			{Name: "a", NDV: 8, Skew: 1.4, Parent: -1},
			{Name: "b", NDV: 4, Skew: 0, Parent: 0, Noise: 0.1},
			{Name: "c", NDV: 16, Skew: 1.2, Parent: -1},
		},
	})
}

func tinyConfig() Config {
	c := DefaultConfig()
	c.Hidden = []int{32, 32}
	return c
}

func TestModelConstruction(t *testing.T) {
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	if m.SizeBytes() <= 0 {
		t.Fatal("no parameters")
	}
	if m.Table() != tbl {
		t.Fatal("Table accessor")
	}
	if m.Name() != "duet" {
		t.Fatal("Name")
	}
	if m.Config().Hidden[0] != 32 {
		t.Fatal("Config accessor")
	}
}

func TestEstimateUnconstrainedIsFullTable(t *testing.T) {
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	got := m.EstimateCard(workload.Query{})
	if math.Abs(got-100) > 1e-6 {
		t.Fatalf("unconstrained estimate %v, want 100", got)
	}
}

func TestEstimateContradictionIsZero(t *testing.T) {
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGt, Code: 5},
		{Col: 0, Op: workload.OpLt, Code: 2},
	}}
	if got := m.EstimateCard(q); got != 0 {
		t.Fatalf("contradiction estimate %v", got)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 0, Op: workload.OpGe, Code: 2},
		{Col: 2, Op: workload.OpLe, Code: 9},
	}}
	a := m.EstimateCard(q)
	for i := 0; i < 10; i++ {
		if b := m.EstimateCard(q); b != a {
			t.Fatalf("estimate changed between calls: %v vs %v (Duet must be deterministic)", a, b)
		}
	}
}

func TestEstimateBoundedBySelectivityOne(t *testing.T) {
	tbl := tinyTable(150)
	m := NewModel(tbl, tinyConfig())
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 3, NumQueries: 50, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		card := m.EstimateCard(q)
		if card < 0 || card > float64(tbl.NumRows())+1e-6 {
			t.Fatalf("estimate %v outside [0, |T|]", card)
		}
	}
}

func TestUntrainedModelProbabilitiesUniformish(t *testing.T) {
	// With near-zero random init the first column's distribution comes from
	// the bias (zero) so it is exactly uniform; a full-domain predicate must
	// then give selectivity 1.
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	ndv := int32(tbl.Cols[0].NumDistinct())
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: ndv - 1}}}
	got := m.EstimateCard(q)
	if math.Abs(got-100) > 1 {
		t.Fatalf("full-domain predicate estimate %v, want ~100", got)
	}
}

func TestTrainImprovesAccuracy(t *testing.T) {
	tbl := tinyTable(400)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 5, NumQueries: 100, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	labeled := exec.Label(tbl, qs)

	m := NewModel(tbl, tinyConfig())
	evalErr := func() float64 {
		var sum float64
		for _, lq := range labeled {
			sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
		}
		return sum / float64(len(labeled))
	}
	before := evalErr()
	cfg := DefaultTrainConfig()
	cfg.Epochs = 15
	cfg.BatchSize = 128
	cfg.Lambda = 0 // data-only here; hybrid covered separately
	hist := Train(m, cfg)
	after := evalErr()
	if after >= before {
		t.Fatalf("training did not improve mean Q-Error: before %.3f after %.3f", before, after)
	}
	if after > 3.0 {
		t.Fatalf("trained mean Q-Error too high: %.3f", after)
	}
	if hist[len(hist)-1].DataLoss >= hist[0].DataLoss {
		t.Fatalf("data loss did not decrease: %v -> %v", hist[0].DataLoss, hist[len(hist)-1].DataLoss)
	}
}

func TestHybridTrainingRunsAndHelps(t *testing.T) {
	tbl := tinyTable(300)
	train := workload.Generate(tbl, workload.GenConfig{Seed: 42, NumQueries: 200, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	labeled := exec.Label(tbl, train)

	cfg := DefaultTrainConfig()
	cfg.Epochs = 10
	cfg.BatchSize = 128
	cfg.Workload = labeled
	cfg.Lambda = 0.1
	m := NewModel(tbl, tinyConfig())
	var steps int
	cfg.OnStep = func(step int, s StepStats) { steps++ }
	hist := Train(m, cfg)
	if steps == 0 {
		t.Fatal("OnStep never called")
	}
	last := hist[len(hist)-1]
	if last.QueryLoss <= 0 || last.RawQErr < 1 {
		t.Fatalf("hybrid stats missing: %+v", last)
	}
	if last.QueryLoss >= hist[0].QueryLoss*2 {
		t.Fatalf("query loss exploded: %v -> %v", hist[0].QueryLoss, last.QueryLoss)
	}
	// In-workload accuracy should be decent after hybrid training.
	var sum float64
	for _, lq := range labeled {
		sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
	}
	if mean := sum / float64(len(labeled)); mean > 4 {
		t.Fatalf("hybrid-trained in-workload mean Q-Error %.3f", mean)
	}
}

// TestTrainReleasesLayerBuffers: Train and FineTune hand back a model whose
// layers hold no training batch, no estimate puts one back (estimates run on
// the packed plan, never the layer stack), and estimates do not depend on
// what the layers hold.
func TestTrainReleasesLayerBuffers(t *testing.T) {
	tbl := tinyTable(400)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 7, NumQueries: 64, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.BatchSize = 128
	cfg.Lambda = 0

	// A layer stack with buffers reuses them for a one-row Forward; one
	// without allocates them. So if the layers are still empty after
	// training and a round of estimates, the first reference Forward must
	// allocate more than the second.
	mallocs := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.Mallocs - before.Mallocs
	}
	one := []Spec{m.SpecFromQuery(qs[0])}
	for name, train := range map[string]func(){
		"Train":    func() { Train(m, cfg) },
		"FineTune": func() { FineTune(m, exec.Label(tbl, qs), FineTuneConfig{Steps: 2, LR: 1e-4, Lambda: 1}) },
	} {
		train()
		m.EstimateCard(qs[0])
		m.EstimateDetail(qs[0])
		m.EstimateCardBatch(qs)
		first := mallocs(func() { m.Forward(one) })
		second := mallocs(func() { m.Forward(one) })
		if layers := uint64(len(m.net.Net.Layers)); first < second+layers {
			t.Fatalf("after %s and estimates, the first Forward made %d allocations, the second %d: the %d layers held buffers", name, first, second, layers)
		}
		m.net.Net.ReleaseBuffers()
	}

	single := make([]float64, len(qs))
	for i, q := range qs {
		single[i] = m.EstimateCard(q)
	}
	// Put a training-width batch in the buffers, as if never released.
	specs := make([]Spec, 512)
	for i := range specs {
		specs[i] = m.SpecFromQuery(qs[i%len(qs)])
	}
	m.Forward(specs)
	for i, got := range m.EstimateCardBatch(qs) {
		if got != single[i] {
			t.Fatalf("query %d: estimate %v with buffers released, %v with them kept", i, single[i], got)
		}
	}
}

// TestEstimateKeepsNoTrainingSpecs: the spec batch Backward routes through is
// training state, released with the rest when Train returns; an estimate
// must not pin its own spec batch there again.
func TestEstimateKeepsNoTrainingSpecs(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.Lambda = 0
	Train(m, cfg)
	if m.lastSpecs != nil {
		t.Fatal("Train returned with its last spec batch still held")
	}
	m.EstimateCardBatch(workload.Generate(tbl, workload.GenConfig{Seed: 2, NumQueries: 8, MinPreds: 1, MaxPreds: 2, BoundedCol: -1}))
	if m.lastSpecs != nil {
		t.Fatalf("an estimate left %d specs on the model", len(m.lastSpecs))
	}
}

func TestTrainDeterministicInSeed(t *testing.T) {
	tbl := tinyTable(150)
	cfg := DefaultTrainConfig()
	cfg.Epochs = 2
	cfg.BatchSize = 64
	cfg.Lambda = 0
	m1 := NewModel(tbl, tinyConfig())
	Train(m1, cfg)
	m2 := NewModel(tbl, tinyConfig())
	Train(m2, cfg)
	q := workload.Query{Preds: []workload.Predicate{{Col: 2, Op: workload.OpLe, Code: 7}}}
	if m1.EstimateCard(q) != m2.EstimateCard(q) {
		t.Fatal("same seed must give identical models")
	}
}

func TestQueryLossGradcheck(t *testing.T) {
	tbl := tinyTable(120)
	m := NewModel(tbl, tinyConfig())
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 7, NumQueries: 4, MinPreds: 1, MaxPreds: 2, BoundedCol: -1})
	labeled := exec.Label(tbl, qs)
	const lambda = 0.1

	lossOnly := func() float64 {
		nn.ZeroGrads(m.params)
		q, _ := m.queryLossBackward(labeled, lambda)
		return q * lambda // queryLossBackward returns unscaled mean loss
	}
	nn.ZeroGrads(m.params)
	m.queryLossBackward(labeled, lambda)
	// Masked-out MADE weights are pinned to zero by construction (init +
	// gradient masking); finite differences on them are meaningless, so
	// collect masks and skip those entries.
	masks := make(map[*nn.Param]*tensor.Matrix)
	var collect func(l nn.Layer)
	collect = func(l nn.Layer) {
		switch v := l.(type) {
		case *nn.MaskedLinear:
			masks[v.Weight] = v.Mask
		case *nn.Sequential:
			for _, inner := range v.Layers {
				collect(inner)
			}
		case *nn.Residual:
			collect(v.Inner)
		}
	}
	collect(m.net.Net)
	// Copy analytic grads.
	type pg struct {
		p   *nn.Param
		g   []float32
		idx []int
	}
	var checks []pg
	for _, p := range m.params {
		g := append([]float32(nil), p.G.Data...)
		mask := masks[p]
		var idx []int
		for i := 0; i < len(g); i += 11 {
			if mask != nil && mask.Data[i] == 0 {
				continue
			}
			idx = append(idx, i)
		}
		checks = append(checks, pg{p: p, g: g, idx: idx})
	}
	const eps = 1e-2
	for _, c := range checks {
		for _, i := range c.idx {
			orig := c.p.W.Data[i]
			c.p.W.Data[i] = orig + eps
			lp := lossOnly()
			c.p.W.Data[i] = orig - eps
			lm := lossOnly()
			c.p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			ana := float64(c.g[i])
			if math.Abs(num-ana) > 8e-2*(1e-3+math.Abs(num)+math.Abs(ana)) && math.Abs(num-ana) > 1e-4 {
				t.Fatalf("%s[%d]: analytic %v numeric %v", c.p.Name, i, ana, num)
			}
		}
	}
}

func TestSaveLoadRoundtrip(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	cfg := DefaultTrainConfig()
	cfg.Epochs = 3
	cfg.BatchSize = 64
	cfg.Lambda = 0
	Train(m, cfg)
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(&buf, tbl)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 9, NumQueries: 20, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		if m.EstimateCard(q) != m2.EstimateCard(q) {
			t.Fatal("loaded model disagrees with saved model")
		}
	}
	// Loading against a mismatched table must fail.
	other := tinyTable(50)
	var buf2 bytes.Buffer
	if err := m.Save(&buf2); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(&buf2, other); err == nil {
		t.Fatal("expected NDV mismatch error")
	}
}

// TestSaveLoadThroughFile round-trips through a real file. Unlike
// bytes.Buffer, *os.File is not an io.ByteReader, so gob wraps it in its own
// buffered reader; this catches stream-misalignment regressions between the
// header and parameter decoders that a buffer round-trip cannot.
func TestSaveLoadThroughFile(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	f, err := os.CreateTemp(t.TempDir(), "model-*.duet")
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	m2, err := Load(f, tbl)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 1}}}
	if m.EstimateCard(q) != m2.EstimateCard(q) {
		t.Fatal("file-loaded model disagrees with saved model")
	}
}

func TestMPSNModelEndToEnd(t *testing.T) {
	tbl := tinyTable(300)
	cfg := tinyConfig()
	cfg.MPSN = MPSNMLP
	cfg.MPSNHidden = 32
	cfg.MPSNOut = 8
	m := NewModel(tbl, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 8
	tc.BatchSize = 128
	tc.Lambda = 0
	tc.MaxPredsPerCol = 2
	Train(m, tc)

	// Two-sided range on one column: exact interval, both predicates fed to
	// the MPSN.
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 11, NumQueries: 60, MinPreds: 1, MaxPreds: 2,
		BoundedCol: -1, Ops: []workload.Op{workload.OpGe, workload.OpLe}, MultiPredCols: 1})
	labeled := exec.Label(tbl, qs)
	var sum float64
	for _, lq := range labeled {
		sum += workload.QError(m.EstimateCard(lq.Query), float64(lq.Card))
	}
	if mean := sum / float64(len(labeled)); mean > 5 {
		t.Fatalf("MPSN model mean Q-Error %.3f", mean)
	}
}

func TestMergeMatchesUnmerged(t *testing.T) {
	tbl := tinyTable(200)
	cfg := tinyConfig()
	cfg.MPSN = MPSNMLP
	cfg.MPSNHidden = 16
	cfg.MPSNOut = 8
	m := NewModel(tbl, cfg)
	tc := DefaultTrainConfig()
	tc.Epochs = 2
	tc.BatchSize = 64
	tc.Lambda = 0
	Train(m, tc)
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 13, NumQueries: 30, MinPreds: 1, MaxPreds: 3,
		BoundedCol: -1, MultiPredCols: 1})
	base := make([]float64, len(qs))
	for i, q := range qs {
		base[i] = m.EstimateCard(q)
	}
	if err := m.Merge(); err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		got := m.EstimateCard(q)
		if math.Abs(got-base[i]) > 1e-3*(1+math.Abs(base[i])) {
			t.Fatalf("merged estimate %v differs from per-column %v on %v", got, base[i], q)
		}
	}
	m.Unmerge()
	if got := m.EstimateCard(qs[0]); got != base[0] {
		t.Fatal("Unmerge did not restore the per-column path")
	}
	// Merge on a non-MLP model must fail.
	m2 := NewModel(tbl, tinyConfig())
	if err := m2.Merge(); err == nil {
		t.Fatal("Merge should reject non-MLP models")
	}
}

func TestEstimateDetailBreakdown(t *testing.T) {
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 3}}}
	card, encNS, infNS := m.EstimateDetail(q)
	if card < 0 {
		t.Fatal("negative card")
	}
	if encNS <= 0 || infNS <= 0 {
		t.Fatalf("breakdown enc=%d inf=%d", encNS, infNS)
	}
}

func TestDirectModeMultiPredCollapse(t *testing.T) {
	tbl := tinyTable(100)
	m := NewModel(tbl, tinyConfig())
	// Two-sided range collapses to one canonical predicate in direct mode.
	q := workload.Query{Preds: []workload.Predicate{
		{Col: 2, Op: workload.OpGe, Code: 3},
		{Col: 2, Op: workload.OpLe, Code: 9},
	}}
	spec := m.SpecFromQuery(q)
	if len(spec[2]) != 1 {
		t.Fatalf("direct mode should collapse to 1 predicate, got %d", len(spec[2]))
	}
	// Estimation still uses the exact [3,9] interval mask.
	est := m.EstimateCard(q)
	qFull := workload.Query{Preds: []workload.Predicate{{Col: 2, Op: workload.OpGe, Code: 0}}}
	if est >= m.EstimateCard(qFull) {
		t.Fatalf("range estimate %v should be below full-domain %v", est, m.EstimateCard(qFull))
	}
}
