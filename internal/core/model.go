package core

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"math/rand"
	"slices"
	"sync"
	"time"

	"duet/internal/made"
	"duet/internal/nn"
	"duet/internal/relation"
	"duet/internal/tensor"
	"duet/internal/workload"
)

// Config describes a Duet model.
type Config struct {
	// Hidden layer widths of the autoregressive network. The paper uses
	// MADE 512,256,512,128,1024 for DMV and a 2-layer ResMADE of width 128
	// for Kddcup98 and Census.
	Hidden   []int
	Residual bool

	// Value encoding strategy and its parameters.
	Encoding       ValueEncoding
	EmbedDim       int // width of learned value embeddings
	EmbedThreshold int // EncAuto switches to embeddings above this NDV

	// MPSN configuration; MPSNNone uses the direct one-predicate-per-column
	// encoding.
	MPSN       MPSNKind
	MPSNHidden int
	MPSNOut    int

	Seed int64
}

// DefaultConfig returns the ResMADE-128 configuration the paper uses for
// medium tables.
func DefaultConfig() Config {
	return Config{
		Hidden:         []int{128, 128},
		Residual:       true,
		Encoding:       EncAuto,
		EmbedDim:       32,
		EmbedThreshold: 512,
		MPSNHidden:     64,
		MPSNOut:        16,
		Seed:           42,
	}
}

// DMVConfig returns the larger plain-MADE configuration the paper uses for
// the high-cardinality DMV table.
func DMVConfig() Config {
	c := DefaultConfig()
	c.Hidden = []int{512, 256, 512, 128, 1024}
	c.Residual = false
	return c
}

// ColPred is one predicate on one column, at dictionary-code level.
type ColPred struct {
	Op   workload.Op
	Code int32
}

// Spec is the per-column predicate lists of one query or virtual tuple; an
// empty list marks an unconstrained (wildcard) column.
type Spec [][]ColPred

// Model is a trained or trainable Duet estimator.
type Model struct {
	table  *relation.Table
	cfg    Config
	codecs []*valueCodec
	encs   []*columnEncoder // direct mode (MPSNNone)
	mpsns  []MPSN           // MPSN mode
	net    *made.MADE
	params []*nn.Param

	merged  *mergedMPSN     // optional fused inference path, built by Merge
	plan    *made.Plan      // packed batch inference plan, built lazily, nil when stale
	planCfg made.PlanConfig // how the plan is compiled (e.g. int8 quantization)

	// Inference scratch (estimation is not safe for concurrent use; clone the
	// model or guard with a mutex for concurrent estimation — the serve
	// package lets one caller at a time hold the backend).
	xBatch     *tensor.Matrix // reusable batch encode buffer
	specBatch  []Spec         // reusable spec slice
	neededRows [][]int32      // reusable per-row constrained-block lists
	neededMask []bool
	probsPool  sync.Pool // per-worker softmax scratch for masking

	// Training-step scratch, dropped by releaseTrainingBuffers.
	lastSpecs []Spec        // specs of the last forward batch, for backward routing
	dLogits   tensor.Matrix // logit gradient of the data pass, then of the query pass
	lossTerms []float64     // nn.SoftmaxCE's per-(row, block) loss terms
}

// NewModel builds an untrained Duet model for t.
func NewModel(t *relation.Table, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := t.NumCols()
	m := &Model{table: t, cfg: cfg}
	m.codecs = make([]*valueCodec, n)
	inBlocks := make([]int, n)
	outBlocks := make([]int, n)
	for i, c := range t.Cols {
		m.codecs[i] = newValueCodec(c.NumDistinct(), cfg.Encoding, cfg.EmbedDim, cfg.EmbedThreshold, rng)
		outBlocks[i] = c.NumDistinct()
	}
	if cfg.MPSN == MPSNNone {
		m.encs = make([]*columnEncoder, n)
		for i := range m.encs {
			m.encs[i] = newColumnEncoder(m.codecs[i])
			inBlocks[i] = m.encs[i].width
		}
	} else {
		m.mpsns = make([]MPSN, n)
		for i := range m.mpsns {
			m.mpsns[i] = NewMPSN(cfg.MPSN, predEncWidth(m.codecs[i]), cfg.MPSNHidden, cfg.MPSNOut, rng)
			inBlocks[i] = cfg.MPSNOut
		}
	}
	m.net = made.New(made.Config{
		InBlocks: inBlocks, OutBlocks: outBlocks,
		Hidden: cfg.Hidden, Residual: cfg.Residual, Seed: cfg.Seed + 1,
	})
	for _, vc := range m.codecs {
		m.params = append(m.params, vc.params()...)
	}
	for _, mp := range m.mpsns {
		m.params = append(m.params, mp.Params()...)
	}
	m.params = append(m.params, m.net.Params()...)
	maxOut := slices.Max(outBlocks)
	m.xBatch = &tensor.Matrix{}
	m.probsPool.New = func() any {
		s := make([]float32, maxOut)
		return &s
	}
	return m
}

// Name identifies the estimator; hybrid-trained models report "duet" and
// data-only models "duet-d" — callers may override via the wrappers in the
// bench package.
func (m *Model) Name() string { return "duet" }

// Table returns the table this model was built for.
func (m *Model) Table() *relation.Table { return m.table }

// Config returns the model configuration.
func (m *Model) Config() Config { return m.cfg }

// Params returns all trainable parameters.
func (m *Model) Params() []*nn.Param { return m.params }

// SizeBytes reports the parameter memory of the model.
func (m *Model) SizeBytes() int64 { return nn.SizeBytes(m.params) }

// encodeBatch builds the network input for a batch of specs. In MPSN mode
// the per-column MPSNs run first and their outputs fill the column blocks.
// A non-nil buf is resized (keeping capacity) and fully overwritten, so the
// serving hot path encodes micro-batches without allocating. buf == nil
// allocates fresh storage, which training relies on.
func (m *Model) encodeBatch(specs []Spec, buf *tensor.Matrix) *tensor.Matrix {
	b := len(specs)
	var x *tensor.Matrix
	if buf != nil {
		x = buf.Resize(b, m.net.In.Tot)
	} else {
		x = tensor.New(b, m.net.In.Tot)
	}
	if m.cfg.MPSN == MPSNNone {
		for r, spec := range specs {
			row := x.Row(r)
			for i, enc := range m.encs {
				dst := m.net.In.Slice(row, i)
				if len(spec[i]) == 0 {
					enc.encodeWildcard(dst)
				} else {
					p := spec[i][0]
					enc.encodePred(dst, p.Op, p.Code)
				}
			}
		}
		return x
	}
	for i, mp := range m.mpsns {
		sets := make([]PredSet, b)
		encW := predEncWidth(m.codecs[i])
		for r, spec := range specs {
			for _, p := range spec[i] {
				e := make([]float32, encW)
				encodeMPSNPred(e, m.codecs[i], p.Op, p.Code)
				sets[r] = append(sets[r], e)
			}
		}
		out := mp.Forward(sets)
		for r := 0; r < b; r++ {
			copy(m.net.In.Slice(x.Row(r), i), out.Row(r))
		}
	}
	return x
}

// Forward encodes specs and runs the autoregressive network's layer stack,
// returning per-column logits: the training forward, and the reference tests
// compare the packed plan against. No estimate runs through it.
func (m *Model) Forward(specs []Spec) *tensor.Matrix {
	m.lastSpecs = specs
	return m.net.Forward(m.encodeBatch(specs, nil))
}

// Backward backpropagates the logit gradient through the network, the MPSNs
// and into any learned value embeddings.
func (m *Model) Backward(dLogits *tensor.Matrix) {
	dX := m.net.Backward(dLogits)
	specs := m.lastSpecs
	if m.cfg.MPSN == MPSNNone {
		for r, spec := range specs {
			row := dX.Row(r)
			for i, enc := range m.encs {
				if len(spec[i]) == 0 {
					continue
				}
				p := spec[i][0]
				enc.backward(uint8(p.Op), p.Code, m.net.In.Slice(row, i))
			}
		}
		return
	}
	for i, mp := range m.mpsns {
		dBlock := tensor.New(len(specs), m.cfg.MPSNOut)
		for r := range specs {
			copy(dBlock.Row(r), m.net.In.Slice(dX.Row(r), i))
		}
		dEnc := mp.Backward(dBlock)
		vc := m.codecs[i]
		if vc.mode != EncEmbed {
			continue
		}
		for r, spec := range specs {
			for k, p := range spec[i] {
				vc.backward(p.Code, dEnc[r][k][:vc.width])
			}
		}
	}
}

// SpecFromQuery converts a query into the model's per-column predicate
// lists. In direct (non-MPSN) mode, multiple predicates on one column are
// collapsed to the canonical predicate of their intersection interval (the
// probability mask still uses the exact interval, so only the conditioning
// of later columns is approximated; MPSN mode conditions on all predicates).
func (m *Model) SpecFromQuery(q workload.Query) Spec {
	n := m.table.NumCols()
	spec := make(Spec, n)
	for _, p := range q.Preds {
		spec[p.Col] = append(spec[p.Col], ColPred{Op: p.Op, Code: p.Code})
	}
	if m.cfg.MPSN == MPSNNone {
		ivs := q.ColumnIntervals(m.table)
		for i := range spec {
			if len(spec[i]) <= 1 {
				continue
			}
			iv := ivs[i]
			ndv := int32(m.table.Cols[i].NumDistinct())
			switch {
			case iv.Empty():
				spec[i] = spec[i][:1]
			case iv.Lo == iv.Hi:
				spec[i] = []ColPred{{Op: workload.OpEq, Code: iv.Lo}}
			case iv.Lo == 0:
				spec[i] = []ColPred{{Op: workload.OpLe, Code: iv.Hi}}
			case iv.Hi == ndv-1:
				spec[i] = []ColPred{{Op: workload.OpGe, Code: iv.Lo}}
			default:
				spec[i] = []ColPred{{Op: workload.OpGe, Code: iv.Lo}}
			}
		}
	}
	return spec
}

// EstimateCard estimates the query's cardinality with a single forward pass
// (Algorithm 3): encode predicates, one network inference, zero-out each
// column's probabilities outside its predicate interval, multiply the
// surviving masses. No sampling, deterministic. It is the one-row case of
// EstimateCardBatch and bitwise equal to it.
func (m *Model) EstimateCard(q workload.Query) float64 {
	return m.EstimateCardBatch([]workload.Query{q})[0]
}

// EstimateDetail additionally reports the time spent encoding versus in
// network inference + masking, the breakdown of Figure 6.
func (m *Model) EstimateDetail(q workload.Query) (card float64, encodeNS, inferNS int64) {
	var out [1]float64
	var encoded time.Time
	t0 := time.Now()
	m.estimate(out[:], []workload.Query{q}, &encoded)
	return out[0], encoded.Sub(t0).Nanoseconds(), time.Since(encoded).Nanoseconds()
}

// EstimateCardBatch estimates every query through a packed inference plan
// (made.Plan): all specs are encoded into a single input matrix, a
// sparsity-packed forward computes only the logit blocks each query's
// masked product will read, and the per-row masked products run in
// parallel. Planned results match the training-time layer stack (Forward) up
// to floating-point summation order; they are bitwise deterministic and
// independent of batch composition (every kernel processes rows
// independently in a fixed order), so callers may batch opportunistically
// without changing estimates. It is not safe for concurrent use; the serve
// package serializes access for concurrent callers. The plan and encode
// buffers are retained on the model, so steady-state estimation does not
// allocate matrices; training invalidates the plan automatically. Chunks of
// 256 queries bound those buffers however many queries one call carries.
func (m *Model) EstimateCardBatch(qs []workload.Query) []float64 {
	const chunk = 256
	out := make([]float64, len(qs))
	for off := 0; off < len(qs); off += chunk {
		end := min(off+chunk, len(qs))
		m.estimate(out[off:end], qs[off:end], nil)
	}
	return out
}

// estimate is the inference path every estimate takes: encode, planned
// forward, masked product, one cardinality per query into out. encoded, when
// non-nil, receives the time encoding finished.
func (m *Model) estimate(out []float64, qs []workload.Query, encoded *time.Time) {
	if m.plan == nil {
		m.plan = made.NewPlan(m.net, m.planCfg)
	}
	specs := m.specBatch[:0]
	for _, q := range qs {
		specs = append(specs, m.SpecFromQuery(q))
	}
	m.specBatch = specs[:0]
	var x *tensor.Matrix
	if m.merged != nil && m.cfg.MPSN != MPSNNone {
		// The fused MPSN encoder is single-row; run it per query.
		x = m.xBatch.Resize(len(qs), m.net.In.Tot)
		for r, spec := range specs {
			m.merged.encode(m, spec, x.Row(r))
		}
	} else {
		x = m.encodeBatch(specs, m.xBatch)
	}
	if encoded != nil {
		*encoded = time.Now()
	}
	// The masked product reads only constrained columns' logit blocks, so
	// the plan computes exactly those per row.
	logits := m.plan.Forward(x, m.neededBlocks(qs))
	rows := float64(m.table.NumRows())
	tensor.ParallelFor(len(qs), 4, func(lo, hi int) {
		probs := m.probsPool.Get().(*[]float32)
		for r := lo; r < hi; r++ {
			out[r] = m.maskedProduct(*probs, logits.Row(r), qs[r]) * rows
		}
		m.probsPool.Put(probs)
	})
}

// neededBlocks returns, per query, the ascending list of constrained column
// indices — the only logit blocks the masked product will read. The backing
// storage is reused across calls.
func (m *Model) neededBlocks(qs []workload.Query) [][]int32 {
	n := m.table.NumCols()
	if cap(m.neededRows) < len(qs) {
		next := make([][]int32, len(qs))
		copy(next, m.neededRows)
		m.neededRows = next
	}
	m.neededRows = m.neededRows[:len(qs)]
	if cap(m.neededMask) < n {
		m.neededMask = make([]bool, n)
	}
	mask := m.neededMask[:n]
	for r, q := range qs {
		row := m.neededRows[r][:0]
		for i := range mask {
			mask[i] = false
		}
		for _, p := range q.Preds {
			mask[p.Col] = true
		}
		for i, constrained := range mask {
			if constrained {
				row = append(row, int32(i))
			}
		}
		m.neededRows[r] = row
	}
	return m.neededRows
}

// InvalidatePlan discards the packed inference plan; the next batched
// estimate recompiles it from the current weights. Training does this
// automatically — call it manually only after mutating parameters directly.
func (m *Model) InvalidatePlan() { m.plan = nil }

// SetPlanConfig selects how the packed inference plan is compiled (e.g.
// int8 weight quantization). A change invalidates any existing plan. The
// setting is serving configuration, not model state: Save does not persist
// it, and the registry re-applies it from the manifest after every load.
// Like the other plan operations it must not race with inference.
func (m *Model) SetPlanConfig(cfg made.PlanConfig) {
	if cfg != m.planCfg {
		m.planCfg = cfg
		m.plan = nil
	}
}

// PlanConfig returns the current plan compilation setting.
func (m *Model) PlanConfig() made.PlanConfig { return m.planCfg }

// WarmPlan compiles the packed inference plan now (if stale) instead of on
// the first batched estimate, and reports its resident weight bytes. The
// registry warms plans at install time so the first estimate after an add,
// reload or swap does not pay compilation latency — and so concurrent
// readers never observe a half-built plan (Model is externally serialized
// only on the serving path).
func (m *Model) WarmPlan() int {
	if m.plan == nil {
		m.plan = made.NewPlan(m.net, m.planCfg)
	}
	return m.plan.WeightBytes()
}

// maskedProduct computes Π_i Σ_{v∈I_i} P(C_i = v | ·) over the constrained
// columns, the core of Algorithm 3. scratch is caller-supplied softmax
// storage (len ≥ the largest column NDV), so masking can run on multiple
// rows concurrently with per-worker buffers.
func (m *Model) maskedProduct(scratch []float32, logitRow []float32, q workload.Query) float64 {
	ivs := q.ColumnIntervals(m.table)
	mask := q.ConstrainedMask(m.table.NumCols())
	sel := 1.0
	for i := range m.table.Cols {
		if !mask[i] {
			continue // unconstrained columns integrate to 1
		}
		iv := ivs[i]
		if iv.Empty() {
			return 0
		}
		seg := m.net.Out.Slice(logitRow, i)
		f := nn.IntervalMass(scratch[:len(seg)], seg, iv.Lo, iv.Hi)
		if f < 1e-12 {
			f = 1e-12
		}
		if f > 1 {
			f = 1
		}
		sel *= f
	}
	return sel
}

// modelBlob is the gob wire format of a saved model.
type modelBlob struct {
	Cfg  Config
	NDVs []int
}

// Save writes the model configuration and parameters.
func (m *Model) Save(w io.Writer) error {
	if err := gob.NewEncoder(w).Encode(modelBlob{Cfg: m.cfg, NDVs: m.table.NDVs()}); err != nil {
		return fmt.Errorf("core: save model header: %w", err)
	}
	return nn.SaveParams(w, m.params)
}

// Load reads a model saved by Save, rebuilding it against t (whose NDV
// profile must match the saved one).
func Load(r io.Reader, t *relation.Table) (*Model, error) {
	// The stream holds two consecutive gob messages (header, then params)
	// read by separate decoders. gob wraps a reader that is not an
	// io.ByteReader in its own bufio and reads ahead, which would misalign
	// the second decoder on plain files; one shared buffered reader keeps
	// both decoders on the same position.
	br := bufio.NewReader(r)
	var blob modelBlob
	if err := gob.NewDecoder(br).Decode(&blob); err != nil {
		return nil, fmt.Errorf("core: load model header: %w", err)
	}
	ndvs := t.NDVs()
	if len(ndvs) != len(blob.NDVs) {
		return nil, fmt.Errorf("core: model has %d columns, table has %d", len(blob.NDVs), len(ndvs))
	}
	for i := range ndvs {
		if ndvs[i] != blob.NDVs[i] {
			return nil, fmt.Errorf("core: column %d NDV mismatch: model %d, table %d", i, blob.NDVs[i], ndvs[i])
		}
	}
	m := NewModel(t, blob.Cfg)
	if err := nn.LoadParams(br, m.params); err != nil {
		return nil, err
	}
	return m, nil
}
