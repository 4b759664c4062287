package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"duet/internal/container"
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

// Model is a trained or trainable Duet estimator: the MADE net, every
// parameter with its gradient, and the predicate encoder they train.
//
// An estimate reads only a Snapshot (see Compile), never the training state.
// The model publishes its own f32 snapshot through an atomic pointer,
// compiled on first use; Train (each epoch) and FineTune (on return) publish
// a new one, and a pass in flight finishes on the one it loaded, so
// estimation is safe for concurrent use. A snapshot shares no mutable state
// with its model, so estimating on one while its model trains is safe too.
// The model's own estimates while Train or FineTune runs on it are not
// supported until one snapshot has been published: the first one is compiled
// lazily, and compiling reads the weights training writes.
type Model struct {
	encoder
	cfg    Config
	net    *made.MADE
	params []*nn.Param

	snap atomic.Pointer[Snapshot] // what the model's own estimates read; never reset to nil
}

// encoder is the predicate side of a model: it turns queries into specs and
// specs into network input rows. A Model trains its own; a Snapshot holds a
// frozen copy.
type encoder struct {
	table  *relation.Table
	in     nn.Blocks // network input layout, one block per column
	codecs []*valueCodec
	encs   []*columnEncoder // direct mode (MPSNNone)
	mpsns  []MPSN           // MPSN mode
}

// freeze copies e for a snapshot. Codecs and the per-column MPSNs are copied
// with their current weights and without gradients, so later training does
// not reach the copy.
func (e *encoder) freeze() encoder {
	f := *e
	f.codecs = make([]*valueCodec, len(e.codecs))
	for i, vc := range e.codecs {
		f.codecs[i] = vc.freeze()
	}
	if e.encs != nil {
		f.encs = make([]*columnEncoder, len(e.encs))
		for i := range f.encs {
			f.encs[i] = newColumnEncoder(f.codecs[i])
		}
	}
	if e.mpsns != nil {
		f.mpsns = make([]MPSN, len(e.mpsns))
		for i, mp := range e.mpsns {
			f.mpsns[i] = mp.clone(frozen)
		}
	}
	return f
}

// NewModel builds an untrained Duet model for t.
func NewModel(t *relation.Table, cfg Config) *Model {
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := t.NumCols()
	m := &Model{encoder: encoder{table: t}, cfg: cfg}
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
	m.in = m.net.In
	for _, vc := range m.codecs {
		m.params = append(m.params, vc.params()...)
	}
	for _, mp := range m.mpsns {
		m.params = append(m.params, mp.Params()...)
	}
	m.params = append(m.params, m.net.Params()...)
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
// mpsns, one per column, run first and their outputs fill the column blocks;
// they cache their activations, so no two calls may run the same ones at
// once. buf is resized (keeping capacity) and fully overwritten, so the
// serving hot path encodes micro-batches without allocating; Forward passes
// a new matrix every call, because the first layer keeps its input for
// backward.
func (e *encoder) encodeBatch(w *tensor.Workers, specs []Spec, mpsns []MPSN, buf *tensor.Matrix) *tensor.Matrix {
	b := len(specs)
	x := buf.Resize(b, e.in.Tot)
	if e.encs != nil {
		for r, spec := range specs {
			row := x.Row(r)
			for i, enc := range e.encs {
				dst := e.in.Slice(row, i)
				if len(spec[i]) == 0 {
					enc.encodeWildcard(dst)
				} else {
					p := spec[i][0]
					encodePred(dst, enc.codec, p.Op, p.Code)
				}
			}
		}
		return x
	}
	for i, mp := range mpsns {
		sets := make([]PredSet, b)
		encW := predEncWidth(e.codecs[i])
		for r, spec := range specs {
			for _, p := range spec[i] {
				v := make([]float32, encW)
				encodePred(v, e.codecs[i], p.Op, p.Code)
				sets[r] = append(sets[r], v)
			}
		}
		out := mp.Forward(w, sets)
		for r := 0; r < b; r++ {
			copy(e.in.Slice(x.Row(r), i), out.Row(r))
		}
	}
	return x
}

// Forward encodes specs and runs the autoregressive network's layer stack,
// returning per-column logits: the training forward, and the reference tests
// compare the packed plan against. No estimate runs through it, and it
// records nothing on the model beyond the layers' activations. It runs on the
// default worker set; a training step passes its own.
func (m *Model) Forward(specs []Spec) *tensor.Matrix { return m.forward(tensor.Default(), specs) }

func (m *Model) forward(w *tensor.Workers, specs []Spec) *tensor.Matrix {
	return m.net.Net.Forward(w, m.encodeBatch(w, specs, m.mpsns, new(tensor.Matrix)))
}

// backward backpropagates the logit gradient of the last forward, which ran
// on specs, through the network, the MPSNs and into any learned value
// embeddings.
func (m *Model) backward(w *tensor.Workers, specs []Spec, dLogits *tensor.Matrix) {
	dX := m.net.Net.Backward(w, dLogits)
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
		dEnc := mp.Backward(w, dBlock)
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
func (e *encoder) SpecFromQuery(q workload.Query) Spec {
	n := e.table.NumCols()
	spec := make(Spec, n)
	e.specInto(spec, nil, q.ColumnIntervals(e.table), q)
	return spec
}

// specInto is SpecFromQuery into spec, one list per column, whose entries
// it appends to preds; it returns the extended preds. ivs are q's column
// intervals. A list is capped at its length, so appending to one never
// reaches the next.
func (e *encoder) specInto(spec Spec, preds []ColPred, ivs []workload.Interval, q workload.Query) []ColPred {
	for i := range spec {
		start := len(preds)
		for _, p := range q.Preds {
			if p.Col == i {
				preds = append(preds, ColPred{Op: p.Op, Code: p.Code})
			}
		}
		spec[i] = preds[start:len(preds):len(preds)]
	}
	if e.encs == nil {
		return preds
	}
	for i, l := range spec {
		if len(l) <= 1 {
			continue
		}
		iv := ivs[i]
		switch {
		case iv.Empty():
		case iv.Lo == iv.Hi:
			l[0] = ColPred{Op: workload.OpEq, Code: iv.Lo}
		case iv.Lo == 0:
			l[0] = ColPred{Op: workload.OpLe, Code: iv.Hi}
		default:
			l[0] = ColPred{Op: workload.OpGe, Code: iv.Lo}
		}
		spec[i] = l[:1]
	}
	return preds
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
	m.current().estimate(tensor.Default(), out[:], []workload.Query{q}, &encoded)
	return out[0], encoded.Sub(t0).Nanoseconds(), time.Since(encoded).Nanoseconds()
}

// EstimateCardBatch estimates every query on the model's published snapshot
// (Snapshot.EstimateCardBatch). It is safe for concurrent use, and alongside
// Train or FineTune on the same model once a snapshot has been published.
func (m *Model) EstimateCardBatch(qs []workload.Query) []float64 {
	return m.current().EstimateCardBatch(qs)
}

// current returns the published snapshot. When none is published yet it
// compiles one and installs it, unless another caller installed one first.
func (m *Model) current() *Snapshot {
	if s := m.snap.Load(); s != nil {
		return s
	}
	m.snap.CompareAndSwap(nil, m.Compile(made.PlanConfig{}))
	return m.snap.Load()
}

// publish compiles the current weights and installs the result.
func (m *Model) publish() { m.snap.Store(m.Compile(made.PlanConfig{})) }

// WarmPlan compiles the packed inference plan now, if none is published,
// instead of on the first estimate, and reports its resident weight bytes.
func (m *Model) WarmPlan() int { return m.current().WeightBytes() }

// Snapshot is a compiled, immutable estimator: what Algorithm 3's single
// forward pass reads, and nothing training needs. It holds the packed plan,
// the table, the input and output block layouts, frozen value codecs and
// its own copy of the per-column MPSNs, which each pass runs a clone of. It
// holds no pointer to the Model, its MADE net or its parameters, so whoever
// serves one (a registry generation, the model's own estimates) keeps no
// training state resident, and training the model never reaches it.
type Snapshot struct {
	encoder
	plan   *made.Plan
	out    nn.Blocks // logit layout, one block per column
	passes sync.Pool // *pass, one per estimate chunk in flight
	probs  sync.Pool // per-worker softmax scratch for masking
}

// pass is one estimate chunk's scratch. Its buffers grow to the largest
// chunk it has run and are reused, so a warm pass allocates nothing per
// query.
type pass struct {
	specs  []Spec
	lists  [][]ColPred         // the specs' per-column lists, NumCols per query
	preds  []ColPred           // the lists' entries
	ivs    []workload.Interval // per query, NumCols column intervals
	x      tensor.Matrix
	mpsns  []MPSN    // clones of the snapshot's MPSNs: its weights, this pass's activations
	needed [][]int32 // per query: the constrained blocks
	plan   made.Scratch
}

// Compile builds a snapshot of the model's current weights, with the plan
// compiled under cfg (int8 weights, for one) and copies of the predicate
// encoder's weights. The model is not modified: its own estimates keep the
// f32 snapshot it publishes, and snapshots under different configs serve
// side by side. Compile reads the weights, so it must not race with
// training; the snapshot it returns may.
func (m *Model) Compile(cfg made.PlanConfig) *Snapshot {
	s := &Snapshot{encoder: m.encoder.freeze(), plan: made.NewPlan(m.net, cfg), out: m.net.Out}
	maxOut := slices.Max(s.out.Len)
	s.passes.New = func() any {
		ps := &pass{mpsns: make([]MPSN, len(s.mpsns))}
		for i, mp := range s.mpsns {
			ps.mpsns[i] = mp.clone(shared)
		}
		return ps
	}
	s.probs.New = func() any {
		p := make([]float32, maxOut)
		return &p
	}
	return s
}

// WeightBytes reports the packed plan's resident weight bytes.
func (s *Snapshot) WeightBytes() int { return s.plan.WeightBytes() }

// EstimateCardBatch estimates every query through the packed inference plan
// (made.Plan): all specs are encoded into a single input matrix, a
// sparsity-packed forward computes only the logit blocks each query's
// masked product will read, and the per-row masked products run in
// parallel. Planned results match the training-time layer stack
// (Model.Forward) up to floating-point summation order; they are bitwise
// deterministic and independent of batch composition (every kernel processes
// rows independently in a fixed order) and of which pooled scratch ran them,
// so callers may batch opportunistically without changing estimates.
//
// It is safe for concurrent use. Scratch comes from a pool, so steady-state
// estimation does not allocate matrices; chunks of 256 queries bound it.
// Passes run on the default worker set.
func (s *Snapshot) EstimateCardBatch(qs []workload.Query) []float64 {
	return s.estimateBatch(tensor.Default(), qs)
}

func (s *Snapshot) estimateBatch(w *tensor.Workers, qs []workload.Query) []float64 {
	const chunk = 256
	out := make([]float64, len(qs))
	for off := 0; off < len(qs); off += chunk {
		end := min(off+chunk, len(qs))
		s.estimate(w, out[off:end], qs[off:end], nil)
	}
	return out
}

// estimate is the inference path every estimate takes: encode, planned
// forward, masked product, one cardinality per query into out, with every
// fork on w. encoded, when non-nil, receives the time encoding finished.
func (s *Snapshot) estimate(w *tensor.Workers, out []float64, qs []workload.Query, encoded *time.Time) {
	ps := s.passes.Get().(*pass)
	defer s.passes.Put(ps)
	specs := ps.buildSpecs(&s.encoder, qs)
	x := s.encodeBatch(w, specs, ps.mpsns, &ps.x)
	if encoded != nil {
		*encoded = time.Now()
	}
	// The masked product reads only constrained columns' logit blocks, so
	// the plan computes exactly those per row.
	logits := s.plan.Run(w, &ps.plan, x, ps.neededBlocks(qs))
	rows := float64(s.table.NumRows())
	n := s.table.NumCols()
	w.ParallelFor(len(qs), 4, func(lo, hi int) {
		probs := s.probs.Get().(*[]float32)
		for r := lo; r < hi; r++ {
			out[r] = s.maskedProduct(*probs, logits.Row(r), ps.ivs[r*n:(r+1)*n], ps.needed[r]) * rows
		}
		s.probs.Put(probs)
	})
}

// buildSpecs writes every query's column intervals and spec into the pass's
// flat buffers and returns the specs.
func (ps *pass) buildSpecs(e *encoder, qs []workload.Query) []Spec {
	n := e.table.NumCols()
	if cap(ps.lists) < len(qs)*n {
		ps.lists = make([][]ColPred, len(qs)*n)
		ps.ivs = make([]workload.Interval, len(qs)*n)
	}
	specs, preds := ps.specs[:0], ps.preds[:0]
	for r, q := range qs {
		spec := Spec(ps.lists[r*n : (r+1)*n : (r+1)*n])
		preds = e.specInto(spec, preds, q.IntervalsInto(ps.ivs[r*n:], e.table), q)
		specs = append(specs, spec)
	}
	ps.specs, ps.preds = specs, preds
	return specs
}

// neededBlocks returns, per query, the ascending list of constrained column
// indices — the only logit blocks the masked product will read — in the
// pass's reused storage.
func (ps *pass) neededBlocks(qs []workload.Query) [][]int32 {
	for len(ps.needed) < len(qs) {
		ps.needed = append(ps.needed, nil)
	}
	for r, q := range qs {
		row := ps.needed[r][:0]
		for _, p := range q.Preds {
			row = append(row, int32(p.Col))
		}
		slices.Sort(row)
		ps.needed[r] = slices.Compact(row)
	}
	return ps.needed[:len(qs)]
}

// maskedProduct computes Π_i Σ_{v∈I_i} P(C_i = v | ·) over the constrained
// columns cols (ascending), the core of Algorithm 3; ivs holds the query's
// interval per column. scratch is caller-supplied softmax storage (len ≥ the
// largest column NDV), so masking can run on multiple rows concurrently
// with per-worker buffers.
func (s *Snapshot) maskedProduct(scratch []float32, logitRow []float32, ivs []workload.Interval, cols []int32) float64 {
	sel := 1.0
	for _, i := range cols {
		iv := ivs[i]
		if iv.Empty() {
			return 0
		}
		seg := s.out.Slice(logitRow, int(i))
		sel *= min(max(nn.IntervalMass(scratch[:len(seg)], seg, iv.Lo, iv.Hi), 1e-12), 1)
	}
	return sel
}

// modelMagic begins every model file; its last byte is the format version.
const modelMagic = "DUETMOD1"

// modelMeta is a model file's metadata: what NewModel needs to rebuild the
// network its weights fill.
type modelMeta struct {
	Config Config `json:"config"`
	NDVs   []int  `json:"ndvs"`
}

// paramSection names the file section that holds parameter i.
func paramSection(i int, name string) string { return fmt.Sprintf("%d.%s", i, name) }

// Save writes the model as an internal/container file with magic DUETMOD1:
// the Config and the table's NDV profile as metadata, then one section of
// raw little-endian float32s per parameter, named "<i>.<parameter name>", in
// Params order. Gradients are not saved.
func (m *Model) Save(w io.Writer) error {
	secs := make([]container.Section, len(m.params))
	for i, p := range m.params {
		b := make([]byte, 4*len(p.W.Data))
		for j, v := range p.W.Data {
			binary.LittleEndian.PutUint32(b[4*j:], math.Float32bits(v))
		}
		secs[i] = container.Section{Name: paramSection(i, p.Name), Data: b}
	}
	return container.Encode(w, modelMagic, modelMeta{Config: m.cfg, NDVs: m.table.NDVs()}, secs)
}

// Load rebuilds a model from the bytes Save wrote, against t, whose NDV
// profile must match the saved one (EncodingCompatible). A malformed file is
// an error, never a panic or a model that breaks the MADE degree rule, and
// Load allocates O(the file) before it finds out. It checks, in order: the
// container (every checksum and bound); the NDV profile and that the Config
// builds a network; that each section's name and length fit the parameter
// NewModel will fill from it; and, after copying the weights in, that no
// weight sits where the MADE degrees allow none. A file from before the
// DUETMOD1 format is refused; such a model must be retrained.
func Load(data []byte, t *relation.Table) (*Model, error) {
	var meta modelMeta
	secs, err := container.Decode(data, modelMagic, &meta)
	if errors.Is(err, container.ErrMagic) {
		return nil, fmt.Errorf("core: load model: %w: not a model file, or one saved before this format, which must be retrained (duettrain -manifest)", err)
	}
	if err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if err := EncodingCompatible(meta.NDVs, t); err != nil {
		return nil, err
	}
	if err := buildable(meta.Config, meta.NDVs); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	if err := fits(secs, meta); err != nil {
		return nil, fmt.Errorf("core: load model: %w", err)
	}
	m := NewModel(t, meta.Config)
	for i, p := range m.params {
		b := secs[paramSection(i, p.Name)]
		for j := range p.W.Data {
			p.W.Data[j] = math.Float32frombits(binary.LittleEndian.Uint32(b[4*j:]))
		}
	}
	for _, l := range m.net.Masked {
		for i := 0; i < l.In; i++ {
			for o, w := range l.Weight.W.Row(i) {
				if w != 0 && !l.Allowed(i, o) {
					return nil, fmt.Errorf("core: load model: %s[%d,%d] is %v where the MADE degrees allow no weight", l.Weight.Name, i, o, w)
				}
			}
		}
	}
	return m, nil
}

// fits reports the first parameter NewModel would build for meta whose
// section is of another length (a missing one has none), and sections that
// no parameter fills. It builds nothing.
func fits(secs map[string][]byte, meta modelMeta) error {
	var err error
	n := 0
	paramShapes(meta.NDVs, meta.Config, func(name string, rows, cols float64) {
		if sec := paramSection(n, name); err == nil && float64(len(secs[sec])) != 4*rows*cols {
			err = fmt.Errorf("the config builds parameter %s as %.0fx%.0f float32s, the file's section has %d bytes", sec, rows, cols, len(secs[sec]))
		}
		n++
	})
	if err == nil && n != len(secs) {
		err = fmt.Errorf("the file has %d weight sections, the config builds %d parameters", len(secs), n)
	}
	return err
}

// buildable reports why NewModel would panic on cfg, or build a model with a
// zero-width layer or input block that carries nothing (so the network
// cannot condition on what it covers) or that encodes no predicate, over
// columns with NDV profile ndvs; nil when it would do none of these.
func buildable(cfg Config, ndvs []int) error {
	if slices.ContainsFunc(cfg.Hidden, func(h int) bool { return h <= 0 }) ||
		cfg.Residual && (len(cfg.Hidden) == 0 || slices.Min(cfg.Hidden) != slices.Max(cfg.Hidden)) {
		return fmt.Errorf("no network has hidden widths %v (residual %v)", cfg.Hidden, cfg.Residual)
	}
	embeds := slices.ContainsFunc(ndvs, func(ndv int) bool {
		mode, _ := codecShape(ndv, cfg.Encoding, cfg.EmbedDim, cfg.EmbedThreshold)
		return mode == EncEmbed
	})
	if cfg.Encoding > EncEmbed || cfg.EmbedDim < 0 || embeds && cfg.EmbedDim == 0 {
		return fmt.Errorf("no value codec has encoding %v and embedding width %d", cfg.Encoding, cfg.EmbedDim)
	}
	if cfg.MPSN > MPSNRec || cfg.MPSN != MPSNNone && (cfg.MPSNHidden <= 0 || cfg.MPSNOut <= 0) {
		return fmt.Errorf("no MPSN is of kind %v with widths %d, %d", cfg.MPSN, cfg.MPSNHidden, cfg.MPSNOut)
	}
	return nil
}

// paramShapes calls visit with the name and shape of every parameter
// NewModel builds for cfg over columns with NDV profile ndvs, in Params
// order, for a cfg that passes buildable, without building anything. Shapes
// are float64 so that no config's widths overflow them: every size a file
// can carry is below 2^53, where float64 is exact.
func paramShapes(ndvs []int, cfg Config, visit func(name string, rows, cols float64)) {
	linear := func(name string, in, out float64) {
		visit(name+".w", in, out)
		visit(name+".b", 1, out)
	}
	h, o := float64(cfg.MPSNHidden), float64(cfg.MPSNOut)
	var in, out float64
	for _, ndv := range ndvs {
		if mode, width := codecShape(ndv, cfg.Encoding, cfg.EmbedDim, cfg.EmbedThreshold); mode == EncEmbed {
			visit("embedding", float64(ndv), float64(width))
		}
		out += float64(ndv)
	}
	for _, ndv := range ndvs {
		_, width := codecShape(ndv, cfg.Encoding, cfg.EmbedDim, cfg.EmbedThreshold)
		enc := float64(width) + float64(workload.NumOps) // predEncWidth
		switch cfg.MPSN {
		case MPSNNone:
			in += enc + 1 // the wildcard bit
			continue
		case MPSNMLP:
			linear("linear", enc, h)
			linear("linear", h, h)
			linear("linear", h, o)
		case MPSNRNN:
			visit("lstm.wx", enc, 4*h)
			visit("lstm.wh", h, 4*h)
			visit("lstm.b", 1, 4*h)
			linear("mpsn.fc", h, o)
		case MPSNRec:
			visit("mpsn.rec.w1", enc+o, h)
			visit("mpsn.rec.b1", 1, h)
			visit("mpsn.rec.w2", h, o)
			visit("mpsn.rec.b2", 1, o)
		}
		in += o
	}
	prev := in
	if cfg.Residual {
		w := float64(cfg.Hidden[0])
		linear("masked", in, w)
		for range cfg.Hidden {
			linear("masked", w, w)
			linear("masked", w, w)
		}
		prev = w
	} else {
		for _, w := range cfg.Hidden {
			linear("masked", prev, float64(w))
			prev = float64(w)
		}
	}
	linear("masked", prev, out)
}

// EncodingCompatible reports whether weights trained on a table with the
// per-column NDV profile ndvs can serve t: the column count and every NDV
// must match, because every value encoding, MPSN input width, and output
// logit block is sized by the dictionary. nil means appended rows introduced
// no fresh dictionary values, so a model can be loaded or cloned onto the
// grown table and fine-tuned; an error names the first grown column, and the
// caller must train a fresh model instead.
//
// The check is structural (NDV equality). Under the append-only ingest path
// that is exact: relation.AppendRows only ever adds dictionary values, so an
// unchanged NDV implies an unchanged dictionary.
func EncodingCompatible(ndvs []int, t *relation.Table) error {
	now := t.NDVs()
	if len(now) != len(ndvs) {
		return fmt.Errorf("core: model has %d columns, table %q has %d", len(ndvs), t.Name, len(now))
	}
	for i := range now {
		if now[i] != ndvs[i] {
			return fmt.Errorf("core: column %d (%s) NDV changed %d -> %d; the dictionary grew and the trained encodings no longer cover it",
				i, t.Cols[i].Name, ndvs[i], now[i])
		}
	}
	return nil
}

// CloneFor returns a new model over t with this model's configuration and
// weights: Save into a buffer, then Load against t, so a clone is checked
// exactly as a model file is. It is the substrate of the lifecycle fine-tune
// path: clone the served model onto the grown table, FineTune the clone on
// observed feedback, and hot-swap it in while the original keeps serving.
// CloneFor only reads parameter values, which inference never writes, so it
// is safe while the source serves; it must not race with training on it.
func (m *Model) CloneFor(t *relation.Table) (*Model, error) {
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		return nil, err
	}
	return Load(buf.Bytes(), t)
}
