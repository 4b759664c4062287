package core

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
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
		q, _ := m.queryLossBackward(&trainState{}, labeled, lambda)
		return q * lambda // queryLossBackward returns unscaled mean loss
	}
	nn.ZeroGrads(m.params)
	m.queryLossBackward(&trainState{}, labeled, lambda)
	// Masked-out MADE weights are pinned to zero by construction (init +
	// gradient masking); finite differences on them are meaningless, so
	// collect each masked weight's layer and skip the entries it disallows.
	masked := make(map[*nn.Param]*nn.MaskedLinear)
	for _, l := range m.net.Masked {
		masked[l.Weight] = l
	}
	// Copy analytic grads.
	type pg struct {
		p   *nn.Param
		g   []float32
		idx []int
	}
	var checks []pg
	for _, p := range m.params {
		g := append([]float32(nil), p.G.Data...)
		ml := masked[p]
		var idx []int
		for i := 0; i < len(g); i += 11 {
			if ml != nil && !ml.Allowed(i/ml.Out, i%ml.Out) {
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

// modelFile writes a header cfg over tbl followed by params, as Save does.
func modelFile(tb testing.TB, tbl *relation.Table, cfg Config, params []*nn.Param) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(modelBlob{Cfg: cfg, NDVs: tbl.NDVs()}); err != nil {
		tb.Fatal(err)
	}
	if err := nn.SaveParams(&buf, params); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// malformedModels are files over tbl that Load must refuse, by what is wrong
// with each.
func malformedModels(tb testing.TB, tbl *relation.Table) []struct {
	name string
	file []byte
} {
	good := NewModel(tbl, tinyConfig())
	// header edits the config over good's weights.
	header := func(edit func(*Config)) []byte {
		cfg := tinyConfig()
		edit(&cfg)
		return modelFile(tb, tbl, cfg, good.params)
	}
	// built is header with the weights of the model its config builds.
	built := func(edit func(*Config)) []byte {
		cfg := tinyConfig()
		edit(&cfg)
		return modelFile(tb, tbl, cfg, NewModel(tbl, cfg).params)
	}
	// One zero per parameter, under each parameter's true shape.
	short := make([]*nn.Param, len(good.params))
	for i, p := range good.params {
		short[i] = &nn.Param{Name: p.Name, W: &tensor.Matrix{Rows: p.W.Rows, Cols: p.W.Cols, Data: []float32{0}}}
	}
	// A model with one nonzero weight where the degrees allow none.
	broken := NewModel(tbl, tinyConfig())
	out := broken.net.Masked[len(broken.net.Masked)-1]
	out.Weight.W.Set(0, 0, 0.5) // output unit 0 is column 0's block: no input may reach it

	return []struct {
		name string
		file []byte
	}{
		{"negative hidden widths", header(func(c *Config) { c.Hidden = []int{-1, -1} })},
		{"residual without hidden layers", header(func(c *Config) { c.Hidden = nil })},
		{"residual with unequal widths", header(func(c *Config) { c.Hidden = []int{32, 16} })},
		{"unknown value encoding", header(func(c *Config) { c.Encoding = 9 })},
		{"negative embedding width", header(func(c *Config) { c.Encoding, c.EmbedDim = EncEmbed, -3 })},
		{"unknown MPSN kind", header(func(c *Config) { c.MPSN = 9 })},
		{"negative MPSN width", header(func(c *Config) { c.MPSN, c.MPSNHidden = MPSNRNN, -1 })},
		{"zero hidden widths", built(func(c *Config) { c.Hidden = []int{0, 0} })},
		{"zero embedding width", built(func(c *Config) { c.Encoding, c.EmbedDim = EncEmbed, 0 })},
		{"zero MPSN hidden width", built(func(c *Config) { c.MPSN, c.MPSNHidden = MPSNMLP, 0 })},
		{"zero MPSN output width", built(func(c *Config) { c.MPSN, c.MPSNOut = MPSNRec, 0 })},
		{"widths beyond the weights", header(func(c *Config) { c.Hidden = []int{2048, 2048} })},
		{"short weights", modelFile(tb, tbl, tinyConfig(), short)},
		{"weight the degrees disallow", modelFile(tb, tbl, tinyConfig(), broken.params)},
		{"message longer than the file", []byte("\xfc0000")},
		{"message longer than the file, 9 MB", []byte("\xfc\x00\x90\x00\x00")},
	}
}

// TestLoadRejectsMalformed: a model file comes from outside the program, so
// Load returns an error, never a panic, on a header NewModel cannot build (or
// would build into a model with a zero-width layer, or one that encodes no
// predicate), on a header whose widths imply more weights than the file
// carries, on parameters shorter than their shapes, on a nonzero weight
// that the MADE degrees disallow, and on a message longer than the file; and
// it finds out having allocated O(the file), not what the header's widths or
// the message's length claim.
func TestLoadRejectsMalformed(t *testing.T) {
	tbl := tinyTable(100)
	for _, tc := range malformedModels(t, tbl) {
		t.Run(tc.name, func(t *testing.T) {
			var m *Model
			var err error
			alloc := allocated(func() { m, err = Load(bytes.NewReader(tc.file), tbl) })
			if err == nil {
				t.Fatalf("loaded a malformed model: %+v", m.Config())
			}
			t.Log(err)
			if limit := loadAllocLimit(len(tc.file)); alloc > limit {
				t.Fatalf("Load of a %d-byte file allocated %d bytes, over %d", len(tc.file), alloc, limit)
			}
		})
	}
	if _, err := Load(bytes.NewReader(modelFile(t, tbl, tinyConfig(), NewModel(tbl, tinyConfig()).params)), tbl); err != nil {
		t.Fatalf("the well-formed control file does not load: %v", err)
	}
	// A zero embedding width is fine where no column embeds.
	noEmbed := tinyConfig()
	noEmbed.EmbedDim = 0
	if _, err := Load(bytes.NewReader(modelFile(t, tbl, noEmbed, NewModel(tbl, noEmbed).params)), tbl); err != nil {
		t.Fatalf("a model with no embedded column and EmbedDim 0 does not load: %v", err)
	}
}

// FuzzLoad: any bytes give a model or an error, never a panic, and Load
// allocates O(the input), plus slicePresize, on the way. The seeds are a
// saved tiny model, every malformed file TestLoadRejectsMalformed refuses,
// and one whose slice counts claim more than the file holds.
func FuzzLoad(f *testing.F) {
	tbl := tinyTable(100)
	var buf bytes.Buffer
	if err := NewModel(tbl, tinyConfig()).Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, tc := range malformedModels(f, tbl) {
		f.Add(tc.file)
	}
	// A file of one weight ends with the gob message of its blob list: the
	// list's count, 1, then the blob (name, rows, cols, weights), whose
	// weight count is 1 as well. Spelling both counts in five bytes as
	// 16,777,216 (the message 8 bytes longer) takes all of slicePresize.
	one := []*nn.Param{{Name: "w", W: &tensor.Matrix{Rows: 1, Cols: 1, Data: []float32{0}}}}
	overclaim := modelFile(f, tbl, tinyConfig(), one)
	tail := []byte{15, 0xff, 0x8a, 0, 1, 1, 1, 'w', 1, 2, 1, 2, 1, 1, 0, 0}
	if !bytes.HasSuffix(overclaim, tail) {
		f.Fatalf("the one-weight file ends % x, not % x", overclaim[len(overclaim)-len(tail):], tail)
	}
	f.Add(slices.Concat(overclaim[:len(overclaim)-len(tail)],
		[]byte{23, 0xff, 0x8a, 0, 0xfc, 1, 0, 0, 0, 1, 1, 'w', 1, 2, 1, 2, 1, 0xfc, 1, 0, 0, 0, 0, 0}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		alloc := allocated(func() { _, err = Load(bytes.NewReader(data), tbl) })
		if limit := loadAllocLimit(len(data)) + slicePresize; alloc > limit {
			t.Fatalf("Load of %d bytes allocated %d bytes, over %d (err %v)", len(data), alloc, limit, err)
		}
	})
}

// allocated reports the bytes f allocates, process-wide.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// loadAllocLimit bounds what Load may allocate for an n-byte file whose
// slice counts hold: gob decodes a float32 from as little as one byte and a
// model holds a gradient beside every weight (the 64 per byte), and the
// decoders keep some state of their own (the constant). No message length
// the file claims weighs in: Load refuses one beyond the bytes left before
// gob reads it.
func loadAllocLimit(n int) uint64 { return 64*uint64(n) + 1<<20 }

// slicePresize is what any file may make Load allocate beyond
// loadAllocLimit: gob sizes a slice by the count it claims, up to a 10 MB
// chunk, before its elements arrive, and the decode fails at the first count
// beyond the bytes, which can sit in the second of two nested slices (the
// blob list and a blob's weights).
const slicePresize = 2 * 10 << 20

// TestParamCount: the arithmetic Load checks a file against counts exactly
// the weights NewModel builds, for every encoding, MPSN kind and layout.
func TestParamCount(t *testing.T) {
	tbl := tinyTable(100)
	for _, enc := range []ValueEncoding{EncAuto, EncOneHot, EncBinary, EncEmbed} {
		for _, kind := range []MPSNKind{MPSNNone, MPSNMLP, MPSNRNN, MPSNRec} {
			for _, residual := range []bool{true, false} {
				cfg := tinyConfig()
				cfg.Encoding, cfg.MPSN, cfg.Residual = enc, kind, residual
				cfg.EmbedDim, cfg.MPSNHidden, cfg.MPSNOut = 5, 7, 3
				if !residual {
					cfg.Hidden = []int{24, 16, 40}
				}
				want := 0
				for _, p := range NewModel(tbl, cfg).params {
					want += len(p.W.Data)
				}
				if got := paramCount(tbl.NDVs(), cfg); got != float64(want) {
					t.Errorf("encoding %v, MPSN %v, residual %v: paramCount %v, NewModel holds %d", enc, kind, residual, got, want)
				}
			}
		}
	}
}

// TestNewModelHeap pins the live heap of an untrained model: its weights,
// their gradients and the MADE layers' degree vectors. The DMV model
// measured 21.8 MB; a dense In×Out float32 mask per masked layer would add
// 10.6 MB and fail the bound. The census figure is only logged.
func TestNewModelHeap(t *testing.T) {
	heap := func() int64 {
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, tc := range []struct {
		name  string
		tbl   *relation.Table
		cfg   Config
		maxMB float64
	}{
		{"dmv", relation.SynDMV(20000, 1), DMVConfig(), 23},
		{"census", relation.SynCensus(20000, 1), DefaultConfig(), 0},
	} {
		before := heap()
		m := NewModel(tc.tbl, tc.cfg)
		mb := float64(heap()-before) / 1e6
		runtime.KeepAlive(m)
		t.Logf("%s: NewModel holds %.2f MB of heap", tc.name, mb)
		if tc.maxMB > 0 && mb > tc.maxMB {
			t.Errorf("%s: NewModel holds %.2f MB of heap, want <= %.0f MB", tc.name, mb, tc.maxMB)
		}
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

// raceEnabled is set by race_test.go in -race builds.
var raceEnabled bool

// TestEstimatePassAllocs pins that a warm estimate pass allocates nothing per
// query: specs, column intervals and the masked product's inputs live in the
// pooled pass. On one worker a call makes at most 4 allocations (the result
// slice and fixed per-call closures) at every batch size; with two, the
// plan's forked phases add a fixed count per call, so the figure still does
// not grow with the batch.
func TestEstimatePassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tbl := relation.SynDMV(2000, 1)
	s := NewModel(tbl, DMVConfig()).current()
	defer tensor.SetMaxWorkers(0)
	for _, workers := range []int{1, 2} {
		tensor.SetMaxWorkers(workers)
		var first float64
		for _, n := range []int{16, 64, 256} {
			qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), n))
			s.EstimateCardBatch(qs)
			allocs := testing.AllocsPerRun(10, func() { s.EstimateCardBatch(qs) })
			t.Logf("%d workers, %d queries: %v allocations per call", workers, n, allocs)
			if workers == 1 && allocs > 4 {
				t.Errorf("%d queries on one worker: %v allocations per call, want at most 4", n, allocs)
			}
			if first == 0 {
				first = allocs
			} else if allocs > first {
				t.Errorf("%d workers: %v allocations per call at %d queries, %v at 16", workers, allocs, n, first)
			}
		}
	}
}
