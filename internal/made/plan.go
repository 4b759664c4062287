// Plan: a packed-sparse, restriction-aware inference compilation of a MADE
// network. MADE's degree masks zero roughly half of every weight matrix, and
// Duet's masked product (Algorithm 3) reads only the logit blocks of columns
// a query actually constrains — but the generic layer stack multiplies every
// zero and computes every block anyway. A Plan snapshots the current weights
// into a form that skips both:
//
//   - hidden units are re-ordered by autoregressive degree (a private layout
//     inside the plan; inputs and logits keep their public layout), which
//     gathers each unit's structurally-allowed connections into one tight
//     contiguous span — the kernel streams only real weights, with no
//     branches beyond the zero-activation skip;
//   - the output projection becomes, per block, a dense prefix of the
//     degree-sorted hidden units, and Forward computes only the blocks each
//     row needs.
//
// Forward runs a batch in two phases, and each weight it loads serves every
// row of a group that needs it. The trunk phase takes blocks of rowBlock
// rows through every trunk layer: per input unit, the unit's span is loaded
// once and accumulated into each row of the block whose activation is
// nonzero; bias, ReLU and the residual add follow per block. The projection
// phase gathers, per output block, the rows that need it into groups of
// rowBlock, and streams each slab row once per group. Each phase is one
// tensor.ParallelFor whose workers take work items, largest first, from an
// atomic counter; a batch smaller than one row block runs inline, with no
// fork and no allocation.
//
// Every output element starts at +0, adds its terms in ascending input order
// (skipping zero activations), then adds its bias: exactly the additions, in
// exactly the order, of computing its row alone. Results are therefore
// bitwise independent of batch composition, row-block boundaries, worker
// count and kernel tier. They match the generic layer stack up to
// floating-point summation order (the degree sort changes the order in which
// a logit's contributions are added). A Plan is
// immutable after NewPlan and does not see later training; compile a new
// one. A pass writes only its Scratch, so Run on distinct scratches may run
// concurrently; Forward runs on a scratch the plan keeps, so its callers
// serialize.
//
// PlanConfig{Quantize: true} builds the plan with int8 weights instead of
// float32: every packed span (and every hidden row of an output slab) stores
// symmetric int8 codes plus one float32 scale (tensor.QuantizeI8S), and
// Forward runs the fused dequantize-accumulate kernel (tensor.SaxpyI8) with
// the activation×scale product folded into alpha. Weight memory shrinks
// close to 4x and the kernel streams a quarter of the bytes; results are an
// approximation of the f32 plan (core.TestQuantizedPlanAccuracyAndSize
// bounds the q-error delta), but remain deterministic and
// batch-composition independent.
package made

import (
	"fmt"
	"slices"
	"sort"
	"sync/atomic"

	"duet/internal/nn"
	"duet/internal/tensor"
)

// rowBlock is how many rows share one load of a weight span: the trunk
// phase's row block and the projection phase's row group.
const rowBlock = 8

// PlanConfig selects how NewPlan compiles the weights.
type PlanConfig struct {
	// Quantize stores weights as per-span int8 codes with float32 scales
	// instead of float32, trading ≤ one quantization step of weight
	// precision per element for ~4x smaller resident spans.
	Quantize bool
}

// Plan is a compiled inference path for one MADE network. Build with NewPlan,
// run with Run or Forward.
type Plan struct {
	out       nn.Blocks
	trunk     []planLayer
	proj      []outBlock
	quantized bool
	nout      int // trunk stages with an output buffer of their own

	held Scratch // Forward's scratch
}

// Scratch is the memory one pass writes: trunk outputs, logits and the
// projection's work lists. The zero value is ready to use; buffers grow to
// the largest batch run on it.
type Scratch struct {
	x, h   *tensor.Matrix  // the pass's input and the trunk's output
	outs   []tensor.Matrix // per trunk stage with an output buffer, in compile order
	logits tensor.Matrix
	seq    []int32      // 0, 1, 2, ...: the trunk's row blocks slice it
	rowsOf [][]int32    // per output block: the rows that need it, ascending
	items  []projItem   // the projection phase's work, see gather
	next   atomic.Int64 // the next work item of a forked phase
}

// planLayer is one compiled trunk stage.
type planLayer interface {
	// bind sizes the stage's buffers in s for a pass over x's rows and
	// returns the matrix its forward writes. It runs once per pass, before
	// any forward.
	bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix
	// forward computes the listed rows of the stage's output from the same
	// rows of x. Calls on disjoint rows may run concurrently.
	forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix
	weightBytes() int
}

// NewPlan compiles the network's current weights.
func NewPlan(m *MADE, cfg PlanConfig) *Plan {
	layers := m.Net.Layers
	if len(layers) == 0 {
		panic("made: empty network")
	}
	last, ok := layers[len(layers)-1].(*nn.MaskedLinear)
	if !ok {
		panic(fmt.Sprintf("made: final layer is %T, expected *nn.MaskedLinear", layers[len(layers)-1]))
	}
	p := &Plan{out: m.Out, quantized: cfg.Quantize}
	trunk, trunkOrder := compileStack(layers[:len(layers)-1], nil, nil, cfg.Quantize, &p.nout)
	p.trunk = trunk
	p.proj = packOutput(&last.Linear, m.Out, trunkOrder, cfg.Quantize)
	return p
}

// Quantized reports whether the plan stores int8 weights.
func (p *Plan) Quantized() bool { return p.quantized }

// WeightBytes returns the resident bytes of the plan's weight payloads
// (packed spans, output slabs, scales and biases; excludes span metadata
// and activation buffers). It is the number operators compare across
// quantized and f32 plans.
func (p *Plan) WeightBytes() int {
	total := 0
	for _, l := range p.trunk {
		total += l.weightBytes()
	}
	for i := range p.proj {
		total += p.proj[i].weightBytes()
	}
	return total
}

// compileStack compiles a trunk layer list. rowOrder is the layout of the
// stack's input buffer (nil = natural). forceCols, when non-nil, pins the
// column order of the stack's final re-ordering layer (residual branches
// must end in the layout they started in, so the skip add lines up). It
// returns the compiled stack and the layout its output is in.
func compileStack(layers []nn.Layer, rowOrder, forceCols []int32, quant bool, nout *int) ([]planLayer, []int32) {
	out := make([]planLayer, 0, len(layers))
	// Find the last layer that re-orders columns, so forceCols lands on it.
	pinIdx := -1
	for i, l := range layers {
		switch l.(type) {
		case *nn.MaskedLinear, *nn.Linear, *nn.Residual:
			pinIdx = i
		}
	}
	if pinIdx < 0 && forceCols != nil {
		panic("made: cannot pin the layout of a stack with no linear layer")
	}
	colOrder := rowOrder
	for i, l := range layers {
		var pin []int32
		if i == pinIdx {
			pin = forceCols
		}
		switch l := l.(type) {
		case *nn.MaskedLinear:
			pl := packLinear(&l.Linear, colOrder, pin, quant, nout)
			colOrder = pl.cols
			out = append(out, pl)
		case *nn.Linear:
			pl := packLinear(l, colOrder, pin, quant, nout)
			colOrder = pl.cols
			out = append(out, pl)
		case *nn.ReLU:
			out = append(out, reluInPlace{})
		case *nn.Residual:
			inner, ok := l.Inner.(*nn.Sequential)
			if !ok {
				panic(fmt.Sprintf("made: residual inner is %T, expected *nn.Sequential", l.Inner))
			}
			// The skip connection adds the branch output to its input, so
			// the branch must come back in the layout it was given; an
			// explicit outer pin propagates inward.
			want := colOrder
			if pin != nil {
				want = pin
			}
			if want == nil {
				want = identityOrder(innerOutWidth(inner))
			}
			compiled, _ := compileStack(inner.Layers, colOrder, want, quant, nout)
			out = append(out, &residualPlan{inner: compiled, buf: *nout})
			*nout++
			colOrder = want
		default:
			panic(fmt.Sprintf("made: cannot compile layer %T", l))
		}
	}
	return out, colOrder
}

func innerOutWidth(s *nn.Sequential) int {
	for i := len(s.Layers) - 1; i >= 0; i-- {
		switch l := s.Layers[i].(type) {
		case *nn.MaskedLinear:
			return l.Out
		case *nn.Linear:
			return l.Out
		}
	}
	panic("made: residual branch has no linear layer")
}

func identityOrder(n int) []int32 {
	ord := make([]int32, n)
	for i := range ord {
		ord[i] = int32(i)
	}
	return ord
}

// ----- packed spans -----

// spans is a packed weight matrix: input unit k's weights are one
// contiguous span, off[k]..off[k+1], that lands on outputs start[k],
// start[k]+1, ... Exactly one of w (float32) and wq (int8 codes with one
// scale per span) holds the spans, chosen at pack time.
type spans struct {
	start []int32   // per input unit: first output its span reaches
	off   []int32   // per input unit: offset into w/wq; len(start)+1
	w     []float32 // float32 spans
	wq    []int8    // quantized spans; same offsets as w
	scale []float32 // per input unit: dequant scale of its span
	bias  []float32 // per output; nil when the layer has none
}

// quantize replaces the float32 spans with int8 codes and one scale each.
func (s *spans) quantize() {
	s.wq = make([]int8, len(s.w))
	s.scale = make([]float32, len(s.start))
	for k := range s.start {
		lo, hi := s.off[k], s.off[k+1]
		s.scale[k] = tensor.QuantizeI8S(s.wq[lo:hi], s.w[lo:hi])
	}
	s.w = nil // drop the f32 copy; wq+scale are the resident weights
}

func (s *spans) weightBytes() int {
	return 4*len(s.w) + len(s.wq) + 4*len(s.scale) + 4*len(s.bias)
}

// accumulate computes dst[r][col:col+width] for each of at most rowBlock
// listed rows r: from +0, add x[r][k] × span k for ascending k, skipping
// zero activations, then add the bias. Span k is loaded once for all the
// rows, which is the whole reuse: every element still sees exactly its own
// row's terms, in its own row's order.
func (s *spans) accumulate(x *tensor.Matrix, rows []int32, dst *tensor.Matrix, col, width int) {
	var xs, ds [rowBlock][]float32
	n := len(rows)
	for i, r := range rows {
		xs[i] = x.Row(int(r))[:len(s.start)]
		ds[i] = dst.Row(int(r))[col : col+width]
		clear(ds[i])
	}
	switch {
	case n == 1:
		// A lone row (a batch of one, or a block or group of one row): the
		// same terms in the same order, without the row loop, whose cost
		// per input unit would show in every single-estimate latency.
		xr, d := xs[0], ds[0]
		if s.wq != nil {
			for k, av := range xr {
				if av != 0 {
					tensor.SaxpyI8(av*s.scale[k], s.wq[s.off[k]:s.off[k+1]], d[s.start[k]:])
				}
			}
		} else {
			for k, av := range xr {
				if av != 0 {
					tensor.Saxpy(av, s.w[s.off[k]:s.off[k+1]], d[s.start[k]:])
				}
			}
		}
	case s.wq != nil:
		for k, st := range s.start {
			for i := 0; i < n; i++ {
				if av := xs[i][k]; av != 0 {
					// One rounding for activation×scale, then the fused
					// dequantize-accumulate kernel.
					tensor.SaxpyI8(av*s.scale[k], s.wq[s.off[k]:s.off[k+1]], ds[i][st:])
				}
			}
		}
	default:
		for k, st := range s.start {
			for i := 0; i < n; i++ {
				if av := xs[i][k]; av != 0 {
					tensor.Saxpy(av, s.w[s.off[k]:s.off[k+1]], ds[i][st:])
				}
			}
		}
	}
	if s.bias != nil {
		for _, seg := range ds[:n] {
			for j, bv := range s.bias {
				seg[j] += bv
			}
		}
	}
}

// ----- packed trunk linear -----

// packedLinear is a span-packed snapshot of a Linear/MaskedLinear with its
// output units re-ordered so each input unit's allowed outputs form one
// contiguous span.
type packedLinear struct {
	spans
	outW int
	cols []int32 // output layout: position p holds original unit cols[p]
	buf  int     // index of the stage's output in Scratch.outs
}

// packLinear snapshots l. rowOrder is the layout of the incoming activation
// buffer (nil = natural); colOrder pins the output layout (nil = sort units
// by connectivity extent so spans are tight). quant selects int8 spans; the
// output buffer takes index *nout.
func packLinear(l *nn.Linear, rowOrder, colOrder []int32, quant bool, nout *int) *packedLinear {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	if colOrder == nil {
		colOrder = sortBySupport(W, rowOrder)
	}
	p := &packedLinear{outW: l.Out, cols: colOrder, buf: *nout}
	*nout++
	p.start = make([]int32, l.In)
	p.off = make([]int32, l.In+1)
	row := make([]float32, l.Out) // layer row in output layout
	for a, k := range rowOrder {
		orig := W.Row(int(k))
		for pcol, j := range colOrder {
			row[pcol] = orig[j]
		}
		lo, hi := 0, len(row)
		for lo < hi && row[lo] == 0 {
			lo++
		}
		for hi > lo && row[hi-1] == 0 {
			hi--
		}
		p.start[a] = int32(lo)
		p.w = append(p.w, row[lo:hi]...)
		p.off[a+1] = int32(len(p.w))
	}
	if l.Bias != nil {
		p.bias = make([]float32, l.Out)
		for pcol, j := range colOrder {
			p.bias[pcol] = l.Bias.W.Data[j]
		}
	}
	if quant {
		p.quantize()
	}
	return p
}

// sortBySupport orders output units by how deep into the (already ordered)
// input their connectivity reaches, stably: for MADE degree masks this is
// exactly the degree sort that makes every span contiguous.
func sortBySupport(W *tensor.Matrix, rowOrder []int32) []int32 {
	support := make([]int, W.Cols)
	for a, k := range rowOrder {
		row := W.Row(int(k))
		for j, v := range row {
			if v != 0 {
				support[j] = a + 1
			}
		}
	}
	ord := identityOrder(W.Cols)
	sort.SliceStable(ord, func(x, y int) bool { return support[ord[x]] < support[ord[y]] })
	return ord
}

func (p *packedLinear) bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix {
	return s.outs[p.buf].Resize(x.Rows, p.outW)
}

func (p *packedLinear) forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	out := &s.outs[p.buf]
	p.accumulate(x, rows, out, 0, p.outW)
	return out
}

// ----- in-place ReLU -----

type reluInPlace struct{}

func (reluInPlace) bind(_ *Scratch, x *tensor.Matrix) *tensor.Matrix { return x }

func (reluInPlace) forward(_ *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	for _, r := range rows {
		row := x.Row(int(r))
		for i, v := range row {
			row[i] = max(v, 0)
		}
	}
	return x
}

func (reluInPlace) weightBytes() int { return 0 }

// ----- residual block -----

type residualPlan struct {
	inner []planLayer
	buf   int // index of the skip sum in Scratch.outs
}

func (p *residualPlan) bind(s *Scratch, x *tensor.Matrix) *tensor.Matrix {
	fx := x
	for _, l := range p.inner {
		fx = l.bind(s, fx)
	}
	return s.outs[p.buf].Resize(x.Rows, x.Cols)
}

func (p *residualPlan) forward(s *Scratch, x *tensor.Matrix, rows []int32) *tensor.Matrix {
	fx := x
	for _, l := range p.inner {
		fx = l.forward(s, fx, rows)
	}
	out := &s.outs[p.buf]
	for _, r := range rows {
		dst, in, branch := out.Row(int(r)), x.Row(int(r)), fx.Row(int(r))
		for i, v := range in {
			dst[i] = v + branch[i]
		}
	}
	return out
}

func (p *residualPlan) weightBytes() int {
	total := 0
	for _, l := range p.inner {
		total += l.weightBytes()
	}
	return total
}

// ----- packed output projection -----

// outBlock is one output block's packed weights. In the degree-sorted hidden
// layout its contributing units are a prefix [0, cut), so the weights are a
// dense cut×width slab streamed linearly: hidden unit t's span is slab row
// t, landing on the whole block.
type outBlock struct {
	spans
	col, width int // the block's logits are columns [col, col+width)
}

// packOutput snapshots the output projection block by block, rows in the
// trunk's output layout. quant selects int8 slabs.
func packOutput(l *nn.Linear, out nn.Blocks, rowOrder []int32, quant bool) []outBlock {
	W := l.Weight.W
	if rowOrder == nil {
		rowOrder = identityOrder(l.In)
	}
	blocks := make([]outBlock, out.N())
	for b := range blocks {
		blk := &blocks[b]
		blk.col, blk.width = out.Off[b], out.Len[b]
		cut := 0
		for a, k := range rowOrder {
			row := W.Row(int(k))[blk.col : blk.col+blk.width]
			for _, v := range row {
				if v != 0 {
					cut = a + 1
					break
				}
			}
		}
		blk.start = make([]int32, cut)
		blk.off = make([]int32, cut+1)
		blk.w = make([]float32, 0, cut*blk.width)
		for t, k := range rowOrder[:cut] {
			blk.w = append(blk.w, W.Row(int(k))[blk.col:blk.col+blk.width]...)
			blk.off[t+1] = int32(len(blk.w))
		}
		if l.Bias != nil {
			blk.bias = append([]float32(nil), l.Bias.W.Data[blk.col:blk.col+blk.width]...)
		}
		if quant {
			blk.quantize()
		}
	}
	return blocks
}

// ----- forward pass -----

// projItem is one work item of the projection phase: one output block for
// a group of at most rowBlock rows that need it.
type projItem struct {
	blk  *outBlock
	rows []int32
	macs int // the item's size, for largest-first scheduling
}

// Forward is Run on the scratch the plan keeps: the result is valid until
// the next Forward, and Forward's callers serialize.
func (p *Plan) Forward(x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	return p.Run(&p.held, x, needed)
}

// Run runs the plan on a batch, writing every buffer of the pass in s.
// needed[r] lists the output blocks to compute for row r, ascending;
// segments of blocks not requested hold unspecified values. The returned
// matrix is owned by s and valid until s runs another pass.
//
// The pass is two phases over row blocks (see the package comment): the
// trunk in blocks of rowBlock rows, then the needed output blocks in groups
// of rowBlock rows each, so every packed span and every slab row is loaded
// once per block or group instead of once per row. Each phase is at most
// one fork; a batch smaller than one row block runs inline and, once s has
// grown to the batch, without allocating. Every logit keeps the arithmetic
// of its row computed alone, so results are bitwise independent of batch
// composition.
func (p *Plan) Run(s *Scratch, x *tensor.Matrix, needed [][]int32) *tensor.Matrix {
	for len(s.outs) < p.nout {
		s.outs = append(s.outs, tensor.Matrix{})
	}
	h := x
	for _, l := range p.trunk {
		h = l.bind(s, h)
	}
	s.x, s.h = x, h
	s.logits.Resize(x.Rows, p.out.Tot)
	for len(s.seq) < x.Rows {
		s.seq = append(s.seq, int32(len(s.seq)))
	}
	fork := x.Rows >= rowBlock
	p.gather(s, needed[:x.Rows], fork)
	p.runPhase(s, trunkPhase, (x.Rows+rowBlock-1)/rowBlock, fork)
	p.runPhase(s, projPhase, len(s.items), fork)
	s.x, s.h = nil, nil
	return &s.logits
}

// gather lists the projection phase's work in s: per output block, the rows
// that need it in ascending order, cut into groups of rowBlock. When the
// phase will fork, the items are sorted largest first; inline, order is moot.
func (p *Plan) gather(s *Scratch, needed [][]int32, fork bool) {
	for len(s.rowsOf) < len(p.proj) {
		s.rowsOf = append(s.rowsOf, nil)
	}
	rowsOf := s.rowsOf[:len(p.proj)]
	for b := range rowsOf {
		rowsOf[b] = rowsOf[b][:0]
	}
	for r, blocks := range needed {
		for _, b := range blocks {
			// A block listed twice for a row is computed once.
			if rows := rowsOf[b]; len(rows) == 0 || rows[len(rows)-1] != int32(r) {
				rowsOf[b] = append(rows, int32(r))
			}
		}
	}
	s.items = s.items[:0]
	for b, rows := range rowsOf {
		blk := &p.proj[b]
		for len(rows) > 0 {
			n := min(len(rows), rowBlock)
			s.items = append(s.items, projItem{blk: blk, rows: rows[:n], macs: n * (len(blk.start) + 1) * blk.width})
			rows = rows[n:]
		}
	}
	if fork {
		slices.SortFunc(s.items, func(a, b projItem) int { return b.macs - a.macs })
	}
}

type phase int

const (
	trunkPhase phase = iota // item i: rows [i*rowBlock, (i+1)*rowBlock) through the trunk
	projPhase               // item i: s.items[i]
)

// runPhase executes a phase's n work items. Without fork (a batch smaller
// than one row block), or for a phase of one item, they run inline;
// otherwise one tensor.ParallelFor sizes the worker set, and each worker
// takes the next item from s.next until none are left (the ranges
// ParallelFor hands out are not used), so a worker that drew a cheap item
// moves on while another finishes a costly one.
func (p *Plan) runPhase(s *Scratch, ph phase, n int, fork bool) {
	if !fork || n < 2 {
		for i := 0; i < n; i++ {
			p.item(s, ph, i)
		}
		return
	}
	s.next.Store(0)
	tensor.ParallelFor(n, 1, func(int, int) {
		for i := int(s.next.Add(1) - 1); i < n; i = int(s.next.Add(1) - 1) {
			p.item(s, ph, i)
		}
	})
}

func (p *Plan) item(s *Scratch, ph phase, i int) {
	if ph == projPhase {
		it := &s.items[i]
		it.blk.accumulate(s.h, it.rows, &s.logits, it.blk.col, it.blk.width)
		return
	}
	lo := i * rowBlock
	rows := s.seq[lo:min(lo+rowBlock, s.x.Rows)]
	h := s.x
	for _, l := range p.trunk {
		h = l.forward(s, h, rows)
	}
}
