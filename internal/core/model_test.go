package core

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"duet/internal/container"
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
		q, _ := m.queryLossBackward(&trainState{w: tensor.Default()}, labeled, lambda)
		return q * lambda // queryLossBackward returns unscaled mean loss
	}
	nn.ZeroGrads(m.params)
	m.queryLossBackward(&trainState{w: tensor.Default()}, labeled, lambda)
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
	m2, err := Load(buf.Bytes(), tbl)
	if err != nil {
		t.Fatal(err)
	}
	qs := workload.Generate(tbl, workload.GenConfig{Seed: 9, NumQueries: 20, MinPreds: 1, MaxPreds: 3, BoundedCol: -1})
	for _, q := range qs {
		if m.EstimateCard(q) != m2.EstimateCard(q) {
			t.Fatal("loaded model disagrees with saved model")
		}
	}
	for i, p := range m.params {
		if !slices.Equal(p.W.Data, m2.params[i].W.Data) || p.Name != m2.params[i].Name {
			t.Fatalf("parameter %d (%s) did not round-trip", i, p.Name)
		}
	}
	// Loading against a mismatched table must fail.
	if _, err := Load(buf.Bytes(), tinyTable(50)); err == nil {
		t.Fatal("expected NDV mismatch error")
	}
}

// TestSaveLoadThroughFile round-trips through a real file, as a model
// directory does: Save writes to an *os.File, and Load reads its bytes back.
func TestSaveLoadThroughFile(t *testing.T) {
	tbl := tinyTable(200)
	m := NewModel(tbl, tinyConfig())
	path := filepath.Join(t.TempDir(), "model.duet")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Load(data, tbl)
	if err != nil {
		t.Fatal(err)
	}
	q := workload.Query{Preds: []workload.Predicate{{Col: 0, Op: workload.OpLe, Code: 1}}}
	if m.EstimateCard(q) != m2.EstimateCard(q) {
		t.Fatal("file-loaded model disagrees with saved model")
	}
}

// modelFile writes a file of config cfg over tbl with params as its weight
// sections, as Save does.
func modelFile(tb testing.TB, tbl *relation.Table, cfg Config, params []*nn.Param) []byte {
	secs := make([]container.Section, len(params))
	for i, p := range params {
		b := make([]byte, 4*len(p.W.Data))
		for j, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[4*j:], math.Float32bits(v))
		}
		secs[i] = container.Section{Name: paramSection(i, p.Name), Data: b}
	}
	var buf bytes.Buffer
	if err := container.Encode(&buf, modelMagic, modelMeta{Config: cfg, NDVs: tbl.NDVs()}, secs); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// framedModel is a model file of one header and the metadata meta, whose
// two checksums hold whatever the metadata claims. The header says the
// metadata spans extra bytes more than it does.
func framedModel(meta string, extra uint64) []byte {
	crc := func(b []byte) uint32 { return crc32.Checksum(b, crc32.MakeTable(crc32.Castagnoli)) }
	data := make([]byte, 64+len(meta))
	copy(data, modelMagic)
	binary.LittleEndian.PutUint64(data[8:], 64)
	binary.LittleEndian.PutUint64(data[16:], uint64(len(meta))+extra)
	binary.LittleEndian.PutUint64(data[24:], uint64(len(data)))
	binary.LittleEndian.PutUint32(data[32:], crc([]byte(meta)))
	binary.LittleEndian.PutUint32(data[60:], crc(data[:60]))
	copy(data[64:], meta)
	return data
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
	// One zero per parameter, under each parameter's true name.
	short := make([]*nn.Param, len(good.params))
	for i, p := range good.params {
		short[i] = &nn.Param{Name: p.Name, W: &tensor.Matrix{Rows: p.W.Rows, Cols: p.W.Cols, Data: []float32{0}}}
	}
	// Every weight, with one moved from the last parameter's section to the
	// first's: the count is right, two lengths are not.
	shifted := slices.Clone(good.params)
	first, last := shifted[0], shifted[len(shifted)-1]
	shifted[0] = &nn.Param{Name: first.Name, W: &tensor.Matrix{Data: append(slices.Clone(first.W.Data), 0)}}
	shifted[len(shifted)-1] = &nn.Param{Name: last.Name, W: &tensor.Matrix{Data: last.W.Data[1:]}}
	// A model with one nonzero weight where the degrees allow none.
	broken := NewModel(tbl, tinyConfig())
	out := broken.net.Masked[len(broken.net.Masked)-1]
	out.Weight.W.Set(0, 0, 0.5) // output unit 0 is column 0's block: no input may reach it
	meta, err := json.Marshal(modelMeta{Config: tinyConfig(), NDVs: tbl.NDVs()})
	if err != nil {
		tb.Fatal(err)
	}

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
		{"section length that does not fit its parameter", modelFile(tb, tbl, tinyConfig(), shifted)},
		{"weight the degrees disallow", modelFile(tb, tbl, tinyConfig(), broken.params)},
		{"section longer than the file", framedModel(fmt.Sprintf(`{"meta":%s,"sections":[{"name":"0.masked.w","off":64,"len":9000000,"crc":0}]}`, meta), 0)},
		{"metadata longer than the file", framedModel(`{}`, 9<<20)},
	}
}

// TestLoadRejectsMalformed: a model file comes from outside the program, so
// Load returns an error, never a panic, on a config NewModel cannot build (or
// would build into a model with a zero-width layer, or one that encodes no
// predicate), on a config whose widths imply other weights than the file
// carries, on weight sections shorter or longer than their parameters, on
// a nonzero weight that the MADE degrees disallow, and on a section or
// metadata longer than the file; and it finds out having allocated O(the
// file), not what the config's widths or a section's length claim.
func TestLoadRejectsMalformed(t *testing.T) {
	tbl := tinyTable(100)
	for _, tc := range malformedModels(t, tbl) {
		t.Run(tc.name, func(t *testing.T) {
			var m *Model
			var err error
			alloc := allocated(func() { m, err = Load(tc.file, tbl) })
			if err == nil {
				t.Fatalf("loaded a malformed model: %+v", m.Config())
			}
			t.Log(err)
			if limit := loadAllocLimit(len(tc.file)); alloc > limit {
				t.Fatalf("Load of a %d-byte file allocated %d bytes, over %d", len(tc.file), alloc, limit)
			}
		})
	}
	if _, err := Load(modelFile(t, tbl, tinyConfig(), NewModel(tbl, tinyConfig()).params), tbl); err != nil {
		t.Fatalf("the well-formed control file does not load: %v", err)
	}
	// A zero embedding width is fine where no column embeds.
	noEmbed := tinyConfig()
	noEmbed.EmbedDim = 0
	if _, err := Load(modelFile(t, tbl, noEmbed, NewModel(tbl, noEmbed).params), tbl); err != nil {
		t.Fatalf("a model with no embedded column and EmbedDim 0 does not load: %v", err)
	}
}

// TestLoadRefusesAnyFlippedByte: every byte of a model file is covered by a
// checksum or must be zero, so flipping any one of them (in the header, the
// padding, a weight section or the metadata) is an error at load time; and
// a file in an older format is told to be retrained.
func TestLoadRefusesAnyFlippedByte(t *testing.T) {
	tbl := tinyTable(100)
	var buf bytes.Buffer
	if err := NewModel(tbl, tinyConfig()).Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := buf.Bytes()
	for i := range file {
		file[i] ^= 0x20
		if _, err := Load(file, tbl); err == nil {
			t.Fatalf("loaded the file with byte %d of %d flipped", i, len(file))
		}
		file[i] ^= 0x20
	}
	if _, err := Load(file, tbl); err != nil {
		t.Fatalf("the unflipped file does not load: %v", err)
	}
	if _, err := Load(append([]byte("\x0e\xff\x81\x03\x01\x01"), make([]byte, 100)...), tbl); err == nil || !strings.Contains(err.Error(), "retrained") {
		t.Fatalf("a file in an older format: error %v does not ask for retraining", err)
	}
}

// FuzzLoad: any bytes give a model or an error, never a panic, and Load
// allocates O(the input) on the way. The seeds are a saved tiny model and
// every malformed file TestLoadRejectsMalformed refuses.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		var err error
		alloc := allocated(func() { _, err = Load(data, tbl) })
		if limit := loadAllocLimit(len(data)); alloc > limit {
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

// loadAllocLimit bounds what Load may allocate for an n-byte file: a weight
// takes 4 bytes of the file and the model holds it and its gradient, the
// JSON metadata decodes to a few times its size, and the decoder keeps some
// state of its own (the constant). No length the file claims weighs in:
// every section and the metadata are checked against the bytes there are
// before anything is sized by them.
func loadAllocLimit(n int) uint64 { return 64*uint64(n) + 1<<20 }

// TestParamCount: the shapes Load checks a file's sections against are, by
// name and size and in order, the parameters NewModel builds, for every
// encoding, MPSN kind and layout.
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
				var want, got []string
				for _, p := range NewModel(tbl, cfg).params {
					want = append(want, fmt.Sprintf("%s %dx%d", p.Name, p.W.Rows, p.W.Cols))
				}
				paramShapes(tbl.NDVs(), cfg, func(name string, rows, cols float64) {
					got = append(got, fmt.Sprintf("%s %.0fx%.0f", name, rows, cols))
				})
				if !slices.Equal(got, want) {
					t.Errorf("encoding %v, MPSN %v, residual %v: paramShapes\n%v\nNewModel builds\n%v", enc, kind, residual, got, want)
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
// pooled pass. A call makes at most 4 allocations (the result slice and
// fixed per-call closures) at every batch size, on one worker and on two:
// forking onto a worker set starts no goroutine and allocates no join
// object.
func TestEstimatePassAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	tbl := relation.SynDMV(2000, 1)
	s := NewModel(tbl, DMVConfig()).current()
	for _, workers := range []int{1, 2} {
		w := tensor.NewWorkers(workers)
		defer w.Close()
		var first float64
		for _, n := range []int{16, 64, 256} {
			qs := workload.Generate(tbl, workload.RandQConfig(tbl.NumCols(), n))
			s.estimateBatch(w, qs)
			allocs := testing.AllocsPerRun(10, func() { s.estimateBatch(w, qs) })
			t.Logf("%d workers, %d queries: %v allocations per call", workers, n, allocs)
			if allocs > 4 {
				t.Errorf("%d queries on %d workers: %v allocations per call, want at most 4", n, workers, allocs)
			}
			if first == 0 {
				first = allocs
			} else if allocs > first {
				t.Errorf("%d workers: %v allocations per call at %d queries, %v at 16", workers, allocs, n, first)
			}
		}
	}
}
