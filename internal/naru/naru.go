// Package naru implements the Naru baseline (Yang et al., VLDB 2020): a deep
// autoregressive model over tuples (equality encodings only) that answers
// range queries by progressive sampling. It is the cornerstone Duet is
// compared against: per estimation it needs one network forward pass per
// constrained column, each over a batch of s samples, and its estimates are
// randomized — the O(n), unstable regime the paper's Problems (1, 2, 4)
// describe.
package naru

import (
	"math/bits"
	"math/rand"
	"slices"
	"time"

	"duet/internal/made"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
)

// Config describes a Naru model.
type Config struct {
	Hidden   []int
	Residual bool
	// OneHotMax: domains up to this size are one-hot encoded, larger ones
	// binary encoded (Naru's strategy for large NDVs).
	OneHotMax int
	// Samples is the progressive-sampling budget per estimation (the paper
	// and Naru's default is 2000).
	Samples int
	Seed    int64
}

// DefaultConfig mirrors the ResMADE-128 setting with 2000 samples.
func DefaultConfig() Config {
	return Config{Hidden: []int{128, 128}, Residual: true, OneHotMax: 64, Samples: 2000, Seed: 42}
}

// codec encodes one column's dictionary codes (equality only): one-hot or
// binary value bits plus a trailing wildcard bit.
type codec struct {
	ndv    int
	oneHot bool
	width  int // value bits only; block width is width+1
}

func newCodec(ndv, oneHotMax int) codec {
	c := codec{ndv: ndv, oneHot: ndv <= oneHotMax}
	if c.oneHot {
		c.width = ndv
	} else {
		c.width = bits.Len(uint(ndv - 1))
		if c.width == 0 {
			c.width = 1
		}
	}
	return c
}

// encode writes code (or the wildcard pattern for code < 0) into dst, whose
// length must be width+1.
func (c codec) encode(dst []float32, code int32) {
	for i := range dst {
		dst[i] = 0
	}
	if code < 0 {
		dst[c.width] = 1 // wildcard bit
		return
	}
	if c.oneHot {
		dst[code] = 1
		return
	}
	for i := 0; i < c.width; i++ {
		dst[i] = float32((code >> i) & 1)
	}
}

// Model is a Naru estimator.
type Model struct {
	table  *relation.Table
	cfg    Config
	codecs []codec
	net    *made.MADE
	rng    *rand.Rand

	// Progressive-sampling scratch.
	x     *tensor.Matrix
	probs []float32
}

// New builds an untrained Naru model.
func New(t *relation.Table, cfg Config) *Model {
	n := t.NumCols()
	m := &Model{table: t, cfg: cfg, rng: rand.New(rand.NewSource(cfg.Seed))}
	inBlocks := make([]int, n)
	outBlocks := make([]int, n)
	m.codecs = make([]codec, n)
	for i, c := range t.Cols {
		m.codecs[i] = newCodec(c.NumDistinct(), cfg.OneHotMax)
		inBlocks[i] = m.codecs[i].width + 1
		outBlocks[i] = c.NumDistinct()
	}
	m.net = made.New(made.Config{
		InBlocks: inBlocks, OutBlocks: outBlocks,
		Hidden: cfg.Hidden, Residual: cfg.Residual, Seed: cfg.Seed + 1,
	})
	m.probs = make([]float32, slices.Max(outBlocks))
	return m
}

// Name identifies the estimator.
func (m *Model) Name() string { return "naru" }

// Table returns the modelled table.
func (m *Model) Table() *relation.Table { return m.table }

// Params returns the trainable parameters.
func (m *Model) Params() []*nn.Param { return m.net.Params() }

// SizeBytes reports parameter memory.
func (m *Model) SizeBytes() int64 { return nn.SizeBytes(m.net.Params()) }

// Net exposes the underlying MADE (the UAE baseline extends it).
func (m *Model) Net() *made.MADE { return m.net }

// SetSeed reseeds the progressive sampler (estimates are randomized; tests
// use this to demonstrate the instability problem).
func (m *Model) SetSeed(seed int64) { m.rng = rand.New(rand.NewSource(seed)) }

// BuildInput encodes a batch of tuples: codes[b][i] is column i's dictionary
// code, or -1 for a wildcard.
func (m *Model) BuildInput(codes [][]int32) *tensor.Matrix {
	for _, row := range codes {
		if len(row) != len(m.codecs) {
			panic("naru: ragged code row")
		}
	}
	return m.buildInput(codes)
}

// EncodeWildcardBlock writes the wildcard encoding into column i's input
// block of row (a full input row of the underlying network).
func (m *Model) EncodeWildcardBlock(row []float32, i int) {
	m.codecs[i].encode(m.net.In.Slice(row, i), -1)
}

// EncodeValueBlock writes the equality encoding of code into column i's
// input block of row.
func (m *Model) EncodeValueBlock(row []float32, i int, code int32) {
	m.codecs[i].encode(m.net.In.Slice(row, i), code)
}

// TrainConfig controls data-driven training.
type TrainConfig struct {
	Epochs       int
	BatchSize    int
	LR           float64
	WildcardProb float64 // per-column wildcard-skipping dropout
	ClipNorm     float64
	Seed         int64
	OnEpoch      func(epoch int, s EpochStats) bool
}

// EpochStats summarizes one epoch.
type EpochStats struct {
	Epoch        int
	DataLoss     float64
	Tuples       int
	TuplesPerSec float64
}

// DefaultTrainConfig returns Naru's usual Adam setting.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{Epochs: 20, BatchSize: 256, LR: 1e-3, WildcardProb: 0.25, ClipNorm: 16, Seed: 42}
}

// Train fits the autoregressive model with maximum likelihood over tuples,
// applying wildcard-skipping dropout so inference-time wildcards are
// in-distribution.
func Train(m *Model, cfg TrainConfig) []EpochStats {
	rng := rand.New(rand.NewSource(cfg.Seed))
	hist, _ := m.TrainEpochs(cfg, rand.New(rand.NewSource(cfg.Seed+7)), func(rows []int) (float64, error) {
		return m.DataStep(rows, cfg.WildcardProb, rng), nil
	})
	return hist
}

// TrainEpochs is Naru's and UAE's training loop: each epoch walks the rows in
// a fresh permutation drawn from perm, cfg.BatchSize rows a step, zeroing the
// gradients, letting step accumulate them, then taking one clipped Adam step.
// It stops after cfg.Epochs, after the epoch OnEpoch rejects, or at the first
// step error, returned with the epochs completed before it. Seed and
// WildcardProb are the caller's to use.
func (m *Model) TrainEpochs(cfg TrainConfig, perm *rand.Rand, step func(rows []int) (float64, error)) ([]EpochStats, error) {
	opt := nn.NewAdam(cfg.LR)
	nRows := m.table.NumRows()
	var hist []EpochStats
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		start := time.Now()
		order := perm.Perm(nRows)
		var lossSum float64
		var steps int
		for off := 0; off < nRows; off += cfg.BatchSize {
			end := off + cfg.BatchSize
			if end > nRows {
				end = nRows
			}
			nn.ZeroGrads(m.Params())
			loss, err := step(order[off:end])
			if err != nil {
				return hist, err
			}
			if cfg.ClipNorm > 0 {
				nn.ClipGradNorm(m.Params(), cfg.ClipNorm)
			}
			opt.Step(tensor.Default(), m.Params())
			lossSum += loss
			steps++
		}
		dur := time.Since(start)
		s := EpochStats{Epoch: epoch, DataLoss: lossSum / float64(steps), Tuples: nRows}
		if sec := dur.Seconds(); sec > 0 {
			s.TuplesPerSec = float64(nRows) / sec
		}
		hist = append(hist, s)
		if cfg.OnEpoch != nil && !cfg.OnEpoch(epoch, s) {
			break
		}
	}
	return hist, nil
}

// DataStep accumulates the data-loss gradient of a batch of rows and returns
// its mean cross-entropy; each input code is wildcarded with probability
// wildcardProb, drawn from rng.
func (m *Model) DataStep(rows []int, wildcardProb float64, rng *rand.Rand) float64 {
	codes := make([][]int32, len(rows))
	labels := make([][]int32, len(rows))
	for i, r := range rows {
		labels[i] = m.table.RowCodes(r, nil)
		in := append([]int32(nil), labels[i]...)
		for c := range in {
			if rng.Float64() < wildcardProb {
				in[c] = -1
			}
		}
		codes[i] = in
	}
	logits := m.net.Forward(m.buildInput(codes))
	d := tensor.New(logits.Rows, logits.Cols)
	loss := nn.SoftmaxCE(tensor.Default(), logits, m.net.Out, labels, d, nil)
	m.net.Backward(d)
	return loss
}

// buildInput is BuildInput without the defensive ragged check (hot path).
func (m *Model) buildInput(codes [][]int32) *tensor.Matrix {
	x := tensor.New(len(codes), m.net.In.Tot)
	for b, row := range codes {
		xr := x.Row(b)
		for i, cd := range m.codecs {
			cd.encode(m.net.In.Slice(xr, i), row[i])
		}
	}
	return x
}
